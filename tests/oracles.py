"""Independent oracle implementations used to cross-check the library.

These deliberately re-derive each quantity from first principles (explicit
tuple enumeration, extreme-point scans, plain Python loops) and never call
the code path they are checking.
"""

import itertools

import numpy as np


def brute_kfold_tv(p_weights, q_weights, k):
    """Half L1 distance between k-fold products by full tuple enumeration."""
    n = len(p_weights)
    total = 0.0
    for tup in itertools.product(range(n), repeat=k):
        mp = 1.0
        mq = 1.0
        for z in tup:
            mp *= p_weights[z]
            mq *= q_weights[z]
        total += abs(mp - mq)
    return 0.5 * total


def brute_kfold_expectation(value_of_tuple, p_weights, k):
    """Expectation of an arbitrary tuple statistic under the k-fold product."""
    n = len(p_weights)
    total = 0.0
    for tup in itertools.product(range(n), repeat=k):
        w = 1.0
        for z in tup:
            w *= p_weights[z]
        total += w * value_of_tuple(tup)
    return total


def counts_of(tup, n):
    c = np.zeros(n, dtype=np.int64)
    for z in tup:
        c[z] += 1
    return c


def brute_best_response(member_rows, g, h, weights):
    """Exhaustive signed scan in plain Python: returns (index, sign, corr)."""
    best = None
    residual = [w * (gv - hv) for w, gv, hv in zip(weights, g, h)]
    for i, row in enumerate(member_rows):
        corr = sum(f * r for f, r in zip(row, residual))
        for sign in (+1, -1):
            value = sign * corr
            if best is None or value > best[2]:
                best = (i, sign, value)
    return best


def calibration_error_extreme_points(g, h, weights):
    """Maximize |E[w(h)(g - h)]| over all 0/1 reweightings of the level sets."""
    levels = sorted(set(h))
    masses = []
    for v in levels:
        masses.append(
            sum(w * (gv - hv) for w, gv, hv in zip(weights, g, h) if hv == v)
        )
    best = 0.0
    for bits in itertools.product((0, 1), repeat=len(levels)):
        val = abs(sum(b * m for b, m in zip(bits, masses)))
        best = max(best, val)
    return best


def compositions_desc(k, n):
    """All count vectors of length n summing to k, in descending
    lexicographic order, by plain recursion."""
    out = []

    def rec(prefix, rem):
        if len(prefix) == n - 1:
            out.append(prefix + [rem])
            return
        for v in range(rem, -1, -1):
            rec(prefix + [v], rem - v)

    rec([], k)
    return np.array(out, dtype=np.int64)


def brute_hybrid_expectations(value_of_tuple, p_weights, q_weights, k):
    """E[value] under p^j x q^(k-j) for j = 0..k: the first j coordinates
    drawn from p, the rest from q (raw measures allowed), by enumeration."""
    n = len(p_weights)
    out = []
    for j in range(k + 1):
        total = 0.0
        for tup in itertools.product(range(n), repeat=k):
            w = 1.0
            for pos, z in enumerate(tup):
                w *= p_weights[z] if pos < j else q_weights[z]
            total += w * value_of_tuple(tup)
        out.append(total)
    return out


def brute_lifted_gaps(member_rows, p_weights, q_weights, k):
    """E_{p^k}[f(z_pos)] - E_{q^k}[f(z_pos)] for every member f applied to
    every coordinate pos (member-major, coordinate-minor), with the k-fold
    products built explicitly over all N^k tuples and normalized."""
    n = len(p_weights)
    tuples = list(itertools.product(range(n), repeat=k))
    wp = np.array([np.prod([p_weights[z] for z in t]) for t in tuples])
    wq = np.array([np.prod([q_weights[z] for z in t]) for t in tuples])
    diff = wp / wp.sum() - wq / wq.sum()
    gaps = []
    for row in member_rows:
        for pos in range(k):
            gaps.append(sum(row[t[pos]] * d for t, d in zip(tuples, diff)))
    return np.array(gaps)


def compose_rows(base_rows, base_descriptors, catalog):
    """compose_level by a plain loop: for each (name, arity, fn) entry, one
    row per index tuple (last index fastest), clipped to [0, 1].  Returns
    (rows, descriptors)."""
    rows, descriptors = [], []
    for name, arity, fn in catalog:
        for tup in itertools.product(range(len(base_rows)), repeat=arity):
            out = np.asarray(fn(*[np.asarray(base_rows[i], dtype=float) for i in tup]), dtype=float)
            rows.append(np.clip(out, 0.0, 1.0))
            descriptors.append(f"{name}({', '.join(base_descriptors[i] for i in tup)})")
    return np.array(rows), descriptors
