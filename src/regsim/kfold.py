"""Exact k-fold product statistics via type classes.

A k-tuple over an N-point domain is summarized by its type: the vector of
coordinate counts.  Any permutation-symmetric statistic of a product
distribution is an exact sum over types weighted by multinomial
coefficients, which turns the N^k brute force into a C(k+N-1, N-1)-term
sum.  Brute-force enumeration over all N^k tuples remains the oracle the
test suite checks this module against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .domain import DERIVED_TOL, Distribution
from .errors import CapExceededError, DomainMismatchError, ValidationError

DEFAULT_TYPE_CAP = 5_000_000

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


def _check_cap(n: int, k: int, cap: int) -> None:
    needed = type_count(n, k)
    if needed > cap:
        raise CapExceededError(needed, cap, f"type-class table for N={n}, k={k}")


def _compositions(k: int, n: int) -> np.ndarray:
    """All count vectors of length n summing to k, first coordinate descending."""
    out = np.empty((type_count(n, k), n), dtype=np.int64)
    row = 0
    cur = np.zeros(n, dtype=np.int64)

    def rec(i: int, rem: int) -> None:
        nonlocal row
        if i == n - 1:
            cur[i] = rem
            out[row] = cur
            row += 1
            return
        for v in range(rem, -1, -1):
            cur[i] = v
            rec(i + 1, rem - v)

    rec(0, k)
    return out


def _multinomials(counts: np.ndarray, k: int) -> np.ndarray:
    kfac = math.factorial(k)
    weights = np.empty(counts.shape[0], dtype=float)
    for i, c in enumerate(counts):
        denom = 1
        for v in c:
            if v > 1:
                denom *= math.factorial(int(v))
        weights[i] = float(kfac // denom)
    return weights


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
    _check_cap(n, k, cap)
    counts = _compositions(k, n)
    weights = _multinomials(counts, k)
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
    table = kfold_type_classes([p, q], k, cap=cap)
    return 0.5 * float(
        np.dot(table.weights, np.abs(table.masses[0] - table.masses[1]))
    )


def kfold_expectation(test, p: MeasureLike, k: int, cap: int = DEFAULT_TYPE_CAP) -> float:
    """Exact expectation of a symmetric (counts-only) test under a k-fold product.

    ``test`` is either an object exposing ``on_counts(counts_matrix)`` or a
    callable mapping a (T, N) counts matrix to T values in [0, 1].  Tests
    that depend on coordinate order cannot be expressed this way; evaluate
    those by explicit tuple enumeration instead.
    """
    table = kfold_type_classes([p], k, cap=cap)
    on_counts = getattr(test, "on_counts", None)
    if on_counts is None:
        if not callable(test):
            raise ValidationError(
                "test must expose on_counts() or be callable on a counts matrix; "
                "non-symmetric tests need the brute-force tuple path"
            )
        on_counts = test
    values = np.asarray(on_counts(table.counts), dtype=float)
    if values.shape != (table.num_types,):
        raise ValidationError(
            f"test returned shape {values.shape}, expected ({table.num_types},)"
        )
    return table.expectation(0, values)
