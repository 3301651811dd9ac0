"""Independent oracle implementations used to cross-check the library.

These deliberately re-derive each quantity from first principles (explicit
tuple enumeration, extreme-point scans, plain Python loops) and never call
the code path they are checking.
"""

import itertools
import math

import numpy as np

from regsim.boosting import (
    BoostTrace,
    TraceRecord,
    _best_threshold_shift,
    _digest,
    _level_matrix,
    _level_sets,
)
from regsim.domain import BoundedFn, potential, round_to_grid


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


def best_response_interleaved(corr):
    """(row, sign, correlation) of one argmax over the interleaved signed
    candidates (row 0 +, row 0 -, row 1 +, ...) of a vector of row scores:
    the first maximum, -0.0 equal to 0.0, reported as that candidate."""
    corr = np.asarray(corr, dtype=float)
    candidates = np.stack([corr, -corr], axis=1).reshape(-1)
    flat = int(np.argmax(candidates))
    row, odd = divmod(flat, 2)
    return row, -1 if odd else +1, float(candidates[flat])


def level_sets_unique(h, weights):
    """(values, inverse, masses) of np.unique(return_inverse=True) and a
    bincount of the weights over the inverse."""
    values, inverse = np.unique(h, return_inverse=True)
    return values, inverse, np.bincount(inverse, weights=weights, minlength=values.size)


def round_to_grid_expression(values, step):
    """Round to the nearest multiple of step (half to even), then clip to
    [0, 1], as one expression of fresh temporaries."""
    return np.clip(np.round(np.asarray(values, dtype=float) / step) * step, 0.0, 1.0)


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


def product_masses_rowwise(counts, vec):
    """prod_x vec[x]^c[x] per row of a counts matrix, raising every entry:
    the library's former formula, kept to pin the gathered one bit for bit."""
    masses = np.empty(counts.shape[0], dtype=float)
    chunk = 65536
    for start in range(0, counts.shape[0], chunk):
        block = counts[start : start + chunk]
        masses[start : start + chunk] = np.prod(vec[None, :] ** block, axis=1)
    return masses


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


def ladder_nested_bytes(levels):
    """The first i at which level matrix i has a row missing from level
    i + 1, rows compared as bytes with -0.0 made 0.0, or None when every
    level is nested in the next."""
    for i, (lower, upper) in enumerate(zip(levels, levels[1:])):
        present = {row.tobytes() for row in np.asarray(upper, dtype=float) + 0.0}
        if any(row.tobytes() not in present for row in np.asarray(lower, dtype=float) + 0.0):
            return i
    return None


def ladder_level_by_level(spec, ctx, path="config.ladder"):
    """config.build_ladder with nothing kept: every level spec (and every
    compose base in it) built on its own by build_family, in level order,
    from the one context ``ctx``, then padded to ``pad_to`` by repeating
    the top level, the padded chain checked in full by GradedLadder."""
    from regsim.config import build_family
    from regsim.families import GradedLadder

    levels = [
        build_family(level, ctx, f"{path}.levels[{i}]") for i, level in enumerate(spec["levels"])
    ]
    levels += [levels[-1]] * (spec.get("pad_to", len(levels)) - len(levels))
    return GradedLadder(levels)


def level_sets_loop(h, weights):
    """(sorted distinct values of h, their masses), each mass added point by
    point in index order."""
    values = sorted(set(float(v) for v in h))
    masses = []
    for v in values:
        total = 0.0
        for hv, w in zip(h, weights):
            if hv == v:
                total += float(w)
        masses.append(total)
    return np.array(values), np.array(masses)


def level_sums_by_point(matrix, residual, inverse, n_levels):
    """(m, L) per-member level sums of matrix * residual, one domain point at
    a time in index order (the order np.add.at adds in)."""
    out = np.zeros((len(matrix), n_levels))
    for x in range(len(residual)):
        out[:, inverse[x]] += matrix[:, x] * residual[x]
    return out


def recalibrate_loop(g, h, weights, gamma):
    """Each level of positive mass set to its conditional mean of g (sums in
    index order), rounded half-to-even to the gamma grid and clipped to
    [0, 1]; zero-mass levels keep their value."""
    values, masses = level_sets_loop(h, weights)
    out = [float(v) for v in h]
    for v, mass in zip(values, masses):
        if mass <= 0.0:
            continue
        total = 0.0
        for hv, w, gv in zip(h, weights, g):
            if hv == v:
                total += float(w) * float(gv)
        new = min(max(round(total / mass / gamma) * gamma, 0.0), 1.0)
        out = [new if hv == v else o for hv, o in zip(h, out)]
    return np.array(out)


def best_threshold_loop(g, weights, sel, f_vals, sign, epsilon, level_value):
    """Scan every distinct positive member value t on the level, largest
    first, for the largest drop 2 eps sign sum(r) - eps^2 sum(w) over
    {f >= t}; a later t must do strictly better.  Returns (t, target mask)."""
    points = [x for x in range(len(g)) if sel[x]]
    best = None
    for t in sorted({float(f_vals[x]) for x in points if f_vals[x] > 0.0}, reverse=True):
        gain = cost = 0.0
        for x in points:
            if f_vals[x] >= t:
                gain += float(weights[x]) * (float(g[x]) - level_value)
                cost += float(weights[x])
        drop = 2.0 * epsilon * sign * gain - epsilon * epsilon * cost
        if best is None or drop > best[0]:
            best = (drop, t)
    target = np.array([bool(sel[x]) and f_vals[x] >= best[1] for x in range(len(g))])
    return best[1], target


def multicalibrate_rescan(g, dist, family, epsilon):
    """multicalibrate with nothing carried between steps: each step rebuilds
    the level sets and the full (member, level) sums from scratch and scans
    them in plain loops, level-major, for the first strict maximum of
    |sum| among levels of mass >= floor whose |sum| / mass > epsilon.

    Returns (h, trace, kinds): kinds is the set of step kinds seen, out of
    "onto-new" / "onto-existing" (the shifted value was or was not a level
    already), "emptied" (the shift moved a whole level) and "zero-mass" (a
    scan saw a level whose points all weigh 0)."""
    floor = epsilon / (math.ceil(1.0 / epsilon) + 1)
    h = BoundedFn(round_to_grid(np.full(g.size, 0.5), epsilon))
    phi = potential(g, h, dist)
    records, kinds = [], set()
    # one row per member, twins included
    members = family.matrix[family.rows]
    while True:
        values, inverse, masses = _level_sets(h, dist)
        residual = dist.weights * (g.values - h.values)
        sums = _level_matrix(members, residual, inverse, values.size)
        if (masses == 0.0).any():
            kinds.add("zero-mass")
        best = None
        for j in range(values.size):
            if not (masses[j] >= floor and masses[j] > 0.0):
                continue
            for i in range(len(family)):
                size = abs(float(sums[i, j]))
                if size / masses[j] > epsilon and (best is None or size > best[0]):
                    best = (size, j, i)
        if best is None:
            trace = BoostTrace(epsilon, tuple(records), h, "violating-mass-below-floor")
            return h, trace, kinds
        weighted, j, i = best
        sign = +1 if sums[i, j] > 0 else -1
        level_value = float(values[j])
        sel = inverse == j
        threshold, target = _best_threshold_shift(
            g, dist, sel, members[i], sign, epsilon, level_value
        )
        new_value = np.clip(level_value + epsilon * sign, 0.0, 1.0)
        kinds.add("onto-existing" if new_value in values else "onto-new")
        if target.sum() == sel.sum():
            kinds.add("emptied")
        new_values = h.values.copy()
        new_values[target] = new_value
        h_new = BoundedFn(new_values)
        phi_new = potential(g, h_new, dist)
        mass = float(masses[j])
        records.append(
            TraceRecord(
                step=len(records),
                kind="level-update",
                phi_before=phi,
                phi_after=phi_new,
                digest=_digest(h_new),
                correlation=weighted / mass,
                sign=sign,
                member_index=i,
                descriptor=family.descriptors[i],
                detail={"level": level_value, "level_mass": mass, "threshold": threshold},
            )
        )
        h, phi = h_new, phi_new
