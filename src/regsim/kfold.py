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
``_mixed_expectations`` builds the successor maps once for all its
hybrid pairs.  The public functions are thin wrappers over the same
pieces, so a verification that builds them once reports the same bits.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .domain import DERIVED_TOL, Distribution
from .errors import CapExceededError, DomainMismatchError, ValidationError

DEFAULT_TYPE_CAP = 5_000_000
_LOG_FLOAT_MAX = math.log(sys.float_info.max) - 1e-6  # margin for lgamma rounding

MeasureLike = Union[Distribution, np.ndarray, Sequence[float]]


def _measure_vector(m: MeasureLike, n: int | None, what: str) -> np.ndarray:
    vec = m.weights if isinstance(m, Distribution) else np.asarray(m, dtype=float)
    if vec.ndim != 1:
        raise ValidationError(f"{what} must be a vector")
    if np.any(vec < 0):
        raise ValidationError(f"{what} must be nonnegative")
    if n is not None and vec.size != n:
        raise DomainMismatchError(n, vec.size, what)
    return vec


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


@functools.lru_cache(maxsize=4)
def _type_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The types of size k and their multinomial weights, built once per
    (N, k) while among the last four pairs asked for; read-only, since
    callers share them."""
    _check_multinomial_bound(n, k)
    counts = _types(n, k)
    fact = [math.factorial(v) for v in range(k + 1)]
    # k! / prod(c!) per row, exact in integers and rounded to float once
    weights = np.array([float(fact[k] // math.prod(fact[v] for v in c)) for c in counts.tolist()])
    for arr in (counts, weights):
        arr.setflags(write=False)
    return counts, weights


def _successors(n: int, k: int) -> list[np.ndarray]:
    """succ[i][t, x] is the row in _types(n, i + 1) of type t of
    _types(n, i) plus one point x, for i < k.

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
    return succ


def _product_masses(counts: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """prod_x vec[x]^c[x] per row; 0^0 = 1 keeps zero-weight points harmless."""
    masses = np.empty(counts.shape[0], dtype=float)
    chunk = 65536
    for start in range(0, counts.shape[0], chunk):
        block = counts[start : start + chunk]
        masses[start : start + chunk] = np.prod(vec[None, :] ** block, axis=1)
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
        if self.k < 1:
            raise ValidationError("k must be >= 1")
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
    if k < 1:
        raise ValidationError("k must be >= 1")
    if not measures:
        raise ValidationError("at least one base measure is required")
    vecs = []
    n = None
    for i, m in enumerate(measures):
        vec = _measure_vector(m, n, f"measure {i}")
        n = vec.size
        vecs.append(vec)
    _check_type_cap(n, k, cap)
    counts, weights = _type_table(n, k)
    masses = np.stack([_product_masses(counts, v) for v in vecs])
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


def _mixed_expectations(
    values: np.ndarray, pairs: Sequence[tuple[MeasureLike, MeasureLike]], k: int
) -> list[np.ndarray]:
    """Per (p, q) pair, E[test] under p^j x q^(k-j) for j = 0..k, in
    O(k N T) with no tuples; ``values`` is the test on the rows of the
    size-k type table.

    The successor maps are built once and shared by every pair.  Per pair,
    a forward pass over them weights each type of size j by the p-mass of
    its tuples; a backward pass gives, per type of size j, the test's
    expectation when the other k - j coordinates are drawn from q.  Entry j
    is the dot product of the two at size j.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    n = None
    vecs = []
    for i, (p, q) in enumerate(pairs):
        pv = _measure_vector(p, n, f"measure {2 * i}")
        n = pv.size
        vecs.append((pv, _measure_vector(q, n, f"measure {2 * i + 1}")))
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
