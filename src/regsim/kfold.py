"""Exact k-fold product statistics via type classes.

A k-tuple over an N-point domain is summarized by its type: the vector of
coordinate counts.  Any permutation-symmetric statistic of a product
distribution is an exact sum over types weighted by multinomial
coefficients, which turns the N^k brute force into a C(k+N-1, N-1)-term
sum.  Mixed products p^j x q^(k-j), which are symmetric within each block
of coordinates, are sums over types too, reached one coordinate at a time
through the successor maps (a type of size i plus one point).  This module
is the library's only enumeration of types; brute-force enumeration over
all N^k tuples remains the oracle the test suite checks it against.

Every statistic is read off shared pieces: one table holds the masses of
all the measures a caller reads (``TypeClassTable.tv`` and
``TypeClassTable.expectation`` take rows of it), and one call of
``_mixed_expectations`` serves all its hybrid pairs.  The public functions
are thin wrappers over the same pieces, so a verification that builds them
once reports the same bits.  What depends on (N, k) alone, the type table
with its weights and gather index and the successor maps, is built once
and kept read-only in the library's one build cache (``domain._cached``):
least recently used, keyed by (function name, N, k), and bounded at
64 MiB, a budget it shares with the config ladders and recurrence labels
kept there.  A layout larger than that is built, used and not kept.
A measure is a Distribution or a raw nonnegative vector, converted by
``domain._measure_vector`` as everywhere else in the library.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .domain import DERIVED_TOL, Distribution, MeasureLike, _cached, _measure_vector, _nbytes
from .errors import CapExceededError, DomainMismatchError, ValidationError

DEFAULT_TYPE_CAP = 5_000_000
_LOG_FLOAT_MAX = math.log(sys.float_info.max) - 1e-6  # margin for lgamma rounding


def type_count(n: int, k: int) -> int:
    """Number of types: compositions of k into n nonnegative parts."""
    return math.comb(k + n - 1, n - 1)


def _types(n: int, k: int) -> np.ndarray:
    """All types of size k over n points, first coordinate descending: the
    library's one enumeration of types.

    A type is a placement of n - 1 bars among k + n - 1 slots, its counts
    the gaps between bars; the placements in reverse lexicographic order
    give the types in this order.
    """
    t = type_count(n, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(k + n - 1), n - 1))
    bars = np.fromiter(flat, dtype=np.int64, count=t * (n - 1)).reshape(t, n - 1)[::-1]
    edges = np.column_stack([np.full(t, -1), bars, np.full(t, k + n - 1)])
    return np.diff(edges, axis=1) - 1


def _check_k(k) -> int:
    """k as an int: a bool or a non-integral k is refused before any cache
    lookup, where 2.0 and True would hash like 2 and 1."""
    if isinstance(k, bool) or not isinstance(k, Integral) or k < 1:
        raise ValidationError("k must be an integer >= 1")
    return int(k)


def _layout(build):
    """Memoize ``build(n, k)``, a tuple of arrays that depend only on (N, k),
    in the library's one build cache (``domain._cached``) under
    (function name, N, k).  The arrays are made read-only, since callers
    share them."""

    @functools.wraps(build)
    def get(n: int, k: int) -> tuple[np.ndarray, ...]:
        def make() -> tuple[np.ndarray, ...]:
            arrays = build(n, k)
            for arr in arrays:
                arr.setflags(write=False)
            return arrays

        return _cached((build.__name__, n, k), make, _nbytes)

    return get


@_layout
def _type_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The types of size k, their multinomial weights and the gather index
    of _product_masses, idx[x, t] = x (k + 1) + counts[t, x], point-major;
    cached per (N, k)."""
    _check_multinomial_bound(n, k)
    counts = _types(n, k)
    fact = [math.factorial(v) for v in range(k + 1)]
    # k! / prod(c!) per row, exact in integers and rounded to float once
    weights = np.array([float(fact[k] // math.prod(fact[v] for v in c)) for c in counts.tolist()])
    idx = np.ascontiguousarray((counts + np.arange(n) * (k + 1)).T)
    return counts, weights, idx


@_layout
def _successors(n: int, k: int) -> tuple[np.ndarray, ...]:
    """succ[i][t, x] is the row in _types(n, i + 1) of type t of
    _types(n, i) plus one point x, for i < k; cached per (N, k).

    With a_j = c[j+1] + ... + c[n-1], type_count(n - j, a_j - 1) types
    (none if a_j = 0) agree with c before coordinate j and exceed it there;
    c's row is their sum over j.  One point at x raises a_j by one for
    j < x only, so a successor's row is a prefix plus a suffix sum.
    """
    ahead = np.array([[0] + [type_count(n - j, a) for a in range(k)] for j in range(n)])
    cols = np.arange(n)
    succ = []
    for i in range(k):
        counts = _types(n, i)
        a = i - np.cumsum(counts, axis=1)
        raised, kept = ahead[cols, a + 1], ahead[cols, a]
        before = np.cumsum(raised, axis=1) - raised
        succ.append(before + np.cumsum(kept[:, ::-1], axis=1)[:, ::-1])
    return tuple(succ)


def _product_masses(idx: np.ndarray, vec: np.ndarray, k: int) -> np.ndarray:
    """prod_x vec[x]^c[x] per type, from _type_table's gather index: the
    N (k + 1) powers are raised once, and each type's factors gathered and
    multiplied from point 0 to point N - 1, in blocks of types that bound
    the gathered temporary.  0^0 = 1 keeps zero-weight points harmless."""
    powers = (vec[:, None] ** np.arange(k + 1)).ravel()
    masses = np.empty(idx.shape[1], dtype=float)
    chunk = 65536
    for start in range(0, idx.shape[1], chunk):
        block = idx[:, start : start + chunk]
        masses[start : start + chunk] = np.multiply.reduce(powers.take(block), axis=0)
    return masses


@dataclass(frozen=True)
class TypeClassTable:
    """Enumeration of all k-tuple types with multinomial weights and, per base
    measure, the probability mass of one representative tuple of each type.

    The expectation of any counts-only statistic t under the i-th product
    measure is sum(weights * masses[i] * t(counts)).
    """

    k: int
    counts: np.ndarray  # (T, N) int64
    weights: np.ndarray  # (T,) multinomial coefficients
    masses: np.ndarray  # (M, T) one row per base measure

    def __post_init__(self):
        _check_k(self.k)
        if self.counts.shape[0] != self.weights.size or self.masses.shape[1] != self.weights.size:
            raise ValidationError("type-class table fields have inconsistent lengths")

    @property
    def num_types(self) -> int:
        return int(self.counts.shape[0])

    def expectation(self, index: int, values: np.ndarray) -> float:
        """Weighted sum of a per-type value vector under measure ``index``."""
        values = np.asarray(values, dtype=float)
        if values.size != self.num_types:
            raise DomainMismatchError(self.num_types, values.size, "per-type values")
        return float(np.dot(self.weights * self.masses[index], values))

    def tv(self, i: int, j: int) -> float:
        """Total variation between the k-fold products of measures i and j:
        half the L1 distance when they are raw."""
        return 0.5 * float(np.dot(self.weights, np.abs(self.masses[i] - self.masses[j])))


def kfold_type_classes(
    measures: Sequence[MeasureLike], k: int, cap: int = DEFAULT_TYPE_CAP
) -> TypeClassTable:
    """Build the type-class table for k-fold products of the given measures."""
    k = _check_k(k)
    if not measures:
        raise ValidationError("at least one base measure is required")
    n = _measure_vector(measures[0], None, "measure 0").size
    vecs = [_measure_vector(m, n, f"measure {i}") for i, m in enumerate(measures)]
    _check_type_cap(n, k, cap)
    counts, weights, idx = _type_table(n, k)
    masses = np.stack([_product_masses(idx, v, k) for v in vecs])
    table = TypeClassTable(k=k, counts=counts, weights=weights, masses=masses)
    for i, m in enumerate(measures):
        if isinstance(m, Distribution):
            total = float(np.dot(weights, masses[i]))
            if abs(total - 1.0) > DERIVED_TOL:
                raise ValidationError(
                    f"type-class masses for distribution {i} sum to {total!r}, "
                    "not 1 within 1e-10"
                )
    return table


def kfold_tv(
    p: MeasureLike, q: MeasureLike, k: int, cap: int = DEFAULT_TYPE_CAP
) -> float:
    """Exact total variation between k-fold products, via type classes.

    Accepts raw nonnegative vectors as well as distributions, in which case
    this is half the L1 distance between the raw product measures.
    """
    return kfold_type_classes([p, q], k, cap=cap).tv(0, 1)


def _test_values(test, counts: np.ndarray) -> np.ndarray:
    """A symmetric test's value on every row of a counts matrix."""
    on_counts = getattr(test, "on_counts", None)
    if on_counts is None:
        if not callable(test):
            raise ValidationError(
                "test must expose on_counts() or be callable on a counts matrix; "
                "tests that depend on coordinate order are not supported"
            )
        on_counts = test
    values = np.asarray(on_counts(counts), dtype=float)
    if values.shape != (counts.shape[0],):
        raise ValidationError(
            f"test returned shape {values.shape}, expected ({counts.shape[0]},)"
        )
    return values


def kfold_expectation(test, p: MeasureLike, k: int, cap: int = DEFAULT_TYPE_CAP) -> float:
    """Exact expectation of a symmetric (counts-only) test under a k-fold product.

    ``test`` is either an object exposing ``on_counts(counts_matrix)`` or a
    callable mapping a (T, N) counts matrix to T values in [0, 1].  Tests
    that depend on coordinate order cannot be expressed this way.
    """
    table = kfold_type_classes([p], k, cap=cap)
    return table.expectation(0, _test_values(test, table.counts))


def _check_type_cap(n: int, k: int, cap: int = DEFAULT_TYPE_CAP) -> None:
    if type_count(n, k) > cap:
        raise CapExceededError(type_count(n, k), cap, f"type-class table for N={n}, k={k}")


def _check_multinomial_bound(n: int, k: int) -> None:
    # the largest multinomial k! / prod(c!) is at the most balanced type
    q, r = divmod(k, n)
    log_top = math.lgamma(k + 1) - r * math.lgamma(q + 2) - (n - r) * math.lgamma(q + 1)
    if log_top > _LOG_FLOAT_MAX:
        raise ValidationError(f"multinomial weights for N={n}, k={k} exceed double precision")


def _check_successor_cap(n: int, k: int) -> None:
    # the successor maps hold N entries per type of every size below k
    needed = n * type_count(n + 1, k - 1)
    if needed > DEFAULT_TYPE_CAP:
        raise CapExceededError(needed, DEFAULT_TYPE_CAP, f"successor maps for N={n}, k={k}")


def _check_kfold_reach(n: int, k: int) -> None:
    """Refuse a k the k-fold engine cannot reach on N points: a k that is
    not an integer >= 1, then the size-k type table's cap, its multinomial
    weights' range and the successor maps' cap.  They depend on N and k
    alone, so callers check before any fit or table build."""
    k = _check_k(k)
    _check_type_cap(n, k)
    _check_multinomial_bound(n, k)
    _check_successor_cap(n, k)


def _mixed_expectations(
    values: np.ndarray, pairs: Sequence[tuple[MeasureLike, MeasureLike]], k: int
) -> list[np.ndarray]:
    """Per (p, q) pair, E[test] under p^j x q^(k-j) for j = 0..k, in
    O(k N T) with no tuples; ``values`` is the test on the rows of the
    size-k type table.

    The successor maps come from the (N, k) cache, shared by every pair and
    every call.  Per pair, a forward pass over them weights each type of
    size j by the p-mass of its tuples; a backward pass gives, per type of
    size j, the test's expectation when the other k - j coordinates are
    drawn from q.  Entry j is the dot product of the two at size j.
    """
    k = _check_k(k)
    n = _measure_vector(pairs[0][0], None, "measure 0").size
    vecs = [
        (_measure_vector(p, n, f"measure {2 * i}"), _measure_vector(q, n, f"measure {2 * i + 1}"))
        for i, (p, q) in enumerate(pairs)
    ]
    if values.shape != (type_count(n, k),):
        raise DomainMismatchError(type_count(n, k), values.size, "per-type values")
    _check_successor_cap(n, k)
    succ = _successors(n, k)
    out = []
    for pv, qv in vecs:
        forward = [np.ones(1)]
        for i in range(k):
            mass = (forward[i][:, None] * pv[None, :]).ravel()
            forward.append(np.bincount(succ[i].ravel(), mass, minlength=type_count(n, i + 1)))
        backward = values
        sums = np.empty(k + 1)
        sums[k] = float(np.dot(forward[k], backward))
        for j in range(k - 1, -1, -1):
            backward = backward[succ[j]] @ qv
            sums[j] = float(np.dot(forward[j], backward))
        out.append(sums)
    return out
