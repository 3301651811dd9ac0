"""Explicit finite probability spaces and exact expectations.

Everything downstream works over a finite domain of N points indexed
0..N-1.  Distributions are probability vectors, bounded functions are
[0, 1]-valued vectors, and every statistic is an exact weighted sum in
double precision.  Tolerances: 1e-12 for structural invariants (vectors
summing to one), 1e-10 for derived sums.  A result is written to a report
by one rule, ``Reported``: its dataclass fields by name.

What depends only on a domain and a fixed spec (k-fold layouts, the
unpadded ladders of config ``levels`` lists, recurrence bounds) is built
once per process and kept in the library's one build cache, ``_cached``,
bounded at 64 MiB.
"""

from __future__ import annotations

import functools
import sys
from collections import OrderedDict
from dataclasses import dataclass, fields
from numbers import Integral
from typing import Any, Callable, Hashable, Iterable, Sequence, TypeVar, Union

import numpy as np

from .errors import DomainMismatchError, ValidationError

STRUCT_TOL = 1e-12
DERIVED_TOL = 1e-10
# Smallest accuracy parameter (epsilon, gamma, alpha) a construction takes:
# at 2^-100 the default boost grid epsilon^10 is still a normal double, and
# every bound derived from one (updates_bound, multicalibrate's
# 4 n_grid / epsilon^3, the shrinking run's 1 / alpha rounds) is finite.
MIN_ACCURACY = 2.0 ** -100


def _check_accuracy(value: float, name: str, upper: float = 0.5) -> None:
    """Refuse an accuracy parameter outside (0, upper) or below MIN_ACCURACY."""
    if not (0.0 < value < upper):
        raise ValidationError(f"{name} must lie in (0, {upper})")
    if value < MIN_ACCURACY:
        raise ValidationError(f"{name} must be at least 2^-100")


def _quoted(value: Any) -> str:
    """A user value as a message quotes it, without raising: its repr, but
    an integer of more than 64 bits named by its bit length (str() of one
    past 4,300 digits raises), and a value that still fails to format (a
    list holding such an integer, or nested past the recursion limit) named
    by its type."""
    if isinstance(value, Integral) and int(value).bit_length() > 64:
        return f"an integer of {int(value).bit_length()} bits"
    try:
        return repr(value)
    except (ValueError, RecursionError):
        return f"a {type(value).__name__} too large to print"


# Metadata of a dataclass field that a report leaves out:
# ``field(metadata=UNREPORTED)``.
UNREPORTED = {"reported": False}


@functools.cache
def _reported_names(cls: type) -> tuple[str, ...]:
    """The names of ``cls``'s reported fields, in declaration order; the
    fields of a class never change, so each class is read once."""
    return tuple(f.name for f in fields(cls) if f.metadata.get("reported", True))


# Types a report writes as they are, checked before ``_json_form`` is called:
# most reported fields hold one, and the call would cost more than the check.
_PLAIN = frozenset({int, float, str, bool, dict})


def _json_form(value: Any) -> Any:
    """A value as a report writes it: its own ``to_json`` if it has one, a
    tuple or list element by element, anything else as it is."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (tuple, list)):
        return [_json_form(v) for v in value]
    return value


class Reported:
    """The one rule for how a result dataclass is written to a report: its
    fields by name, each in its JSON form, leaving out a field that holds
    None and a field declared ``field(metadata=UNREPORTED)``."""

    def to_json(self) -> dict:
        out = {}
        for name in _reported_names(type(self)):
            value = getattr(self, name)
            if value is not None:
                out[name] = value if type(value) in _PLAIN else _json_form(value)
        return out


@dataclass(frozen=True)
class Inequality:
    """One checked claim lhs <= rhs, with slack = rhs - lhs; it passes
    within DERIVED_TOL."""

    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passes(self) -> bool:
        return self.lhs <= self.rhs + DERIVED_TOL

    def require(self, error: type[Exception], what: str) -> "Inequality":
        """This claim, or ``error`` naming it and its two sides when it fails;
        ``what`` says whose claim it is."""
        if not self.passes:
            raise error(f"{what} {self.name}: {self.lhs!r} > {self.rhs!r}")
        return self

    def to_json(self) -> dict:
        # written out, not ``Reported``: a run writes each claim twice, and
        # this form takes a quarter of the rule's time
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.passes,
        }


# A Distribution or a raw nonnegative vector; _measure_vector converts both.
MeasureLike = Union["Distribution", np.ndarray, Sequence[float]]


def _frozen_array(values, name: str, high: float, range_error: str) -> np.ndarray:
    """A read-only float copy of ``values``: a nonempty vector with every
    entry in [0, high].

    One pass converts and copies, and one min/max pair checks finiteness and
    range together, since min and max propagate NaN.  Only a refused vector
    is read again, to report a non-finite entry ahead of ``range_error``."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a one-dimensional vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be nonempty")
    if not (arr.min() >= 0.0 and arr.max() <= high):
        if not np.isfinite(arr).all():
            raise ValidationError(f"{name} contains non-finite entries")
        raise ValidationError(range_error)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FiniteDomain(Reported):
    """A finite set of ``size`` points, optionally carrying an n-bit encoding.

    When ``bit_width`` is set, element i is identified with the n-bit binary
    encoding of i (most-significant bit first), which coordinate families
    read off bit by bit.
    """

    size: int
    bit_width: int | None = None

    def __post_init__(self):
        for key in ("size", "bit_width"):
            value = getattr(self, key)
            if value is not None and (isinstance(value, bool) or not isinstance(value, Integral)):
                raise ValidationError(f"domain {key} must be an integer, got {_quoted(value)}")
        if self.size < 1:
            raise ValidationError("domain size must be >= 1")
        if self.bit_width is not None:
            if self.bit_width < 0:
                raise ValidationError("bit_width must be nonnegative")
            if (self.size - 1).bit_length() > self.bit_width:
                raise ValidationError(
                    f"domain size {_quoted(self.size)} does not fit in {self.bit_width} bits"
                )

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteDomain":
        return cls(size=obj["size"], bit_width=obj.get("bit_width"))


@dataclass(frozen=True)
class Distribution:
    """A probability vector: nonnegative weights summing to one (1e-12)."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(
            self.weights, "distribution weights", sys.float_info.max,
            "distribution weights must be nonnegative",
        )
        total = float(arr.sum())
        if abs(total - 1.0) > STRUCT_TOL:
            raise ValidationError(f"distribution weights sum to {total!r}, not 1 within 1e-12")
        object.__setattr__(self, "weights", arr)

    @property
    def size(self) -> int:
        return int(self.weights.size)

    def to_json(self) -> list[float]:
        return self.weights.tolist()

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class BoundedFn:
    """A [0, 1]-valued function on the domain, stored as a value vector.

    Out-of-range inputs are rejected, never clipped: a target or simulator
    that leaves [0, 1] is a caller bug the audits must surface, not hide.
    Construction copies the values once and checks them with one min/max
    pair (``_frozen_array``); -0.0 is in range and kept as it is.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, "function values", 1.0, "function values must lie in [0, 1]")
        object.__setattr__(self, "values", arr)

    @property
    def size(self) -> int:
        return int(self.values.size)

    def to_json(self) -> list[float]:
        return self.values.tolist()

    @classmethod
    def constant(cls, n: int, value: float) -> "BoundedFn":
        return cls(np.full(n, float(value)))

    @classmethod
    def indicator(cls, n: int, index: int) -> "BoundedFn":
        v = np.zeros(n)
        v[index] = 1.0
        return cls(v)


def _check_size(n: int, arr: np.ndarray, what: str) -> None:
    if arr.size != n:
        raise DomainMismatchError(n, arr.size, what)


def _measure_vector(m: MeasureLike, n: int | None, what: str) -> np.ndarray:
    """A measure's weight vector, of size ``n`` when given: a Distribution's
    own weights, validated when it was built, or a nonempty finite
    nonnegative vector."""
    if isinstance(m, Distribution):
        vec = m.weights
    else:
        vec = np.asarray(m, dtype=float)
        if vec.ndim != 1:
            raise ValidationError(f"{what} must be a vector")
        if vec.size == 0:
            raise ValidationError(f"{what} is empty")
        # min and max propagate NaN, so one comparison also rejects it
        if not (vec.min(initial=0.0) >= 0.0 and vec.max(initial=0.0) < np.inf):
            raise ValidationError(f"{what} must be finite and nonnegative")
    if n is not None:
        _check_size(n, vec, what)
    return vec


def tv_distance(p: MeasureLike, q: MeasureLike) -> float:
    """Total variation distance: half the L1 gap between the weight vectors,
    of raw nonnegative vectors as well as distributions."""
    pv = _measure_vector(p, None, "first measure")
    return 0.5 * float(np.abs(pv - _measure_vector(q, pv.size, "second measure")).sum())


def potential(g: BoundedFn, h: BoundedFn, dist: Distribution) -> float:
    """The squared-error potential E_{x~D}[(g(x) - h(x))^2] driving every
    termination argument in the boosting modules."""
    _check_size(dist.size, g.values, "target")
    _check_size(dist.size, h.values, "simulator")
    diff = g.values - h.values
    return float(np.dot(dist.weights, np.multiply(diff, diff, out=diff)))


def round_to_grid(values: np.ndarray, step: float) -> np.ndarray:
    """Round each entry to the nearest multiple of ``step`` (ties to even),
    then clip back into [0, 1].

    Clipping after rounding keeps the top point of the grid at exactly 1.0,
    so the worst-case rounding error is step/2 everywhere in [0, 1].  One
    fresh copy of the values is divided, rounded (``rint``, half to even, as
    ``np.round`` at 0 decimals), scaled and clipped in place.
    """
    if step <= 0:
        raise ValidationError("grid step must be positive")
    out = np.array(values, dtype=float)
    out /= step
    np.rint(out, out=out)
    out *= step
    return out.clip(0.0, 1.0, out=out)


# ---------------------------------------------------------------------------
# The build cache
# ---------------------------------------------------------------------------

# Byte budget of the build cache below; an entry larger than this is built,
# used and not kept.
_CACHE_BYTES = 64 << 20
_cache = OrderedDict()  # hashable key -> (read-only value, bytes charged)

_T = TypeVar("_T")


def _nbytes(arrays: Iterable[np.ndarray]) -> int:
    """Bytes of the distinct buffers under ``arrays``, each counted once: a
    view is charged as the array that owns its memory."""
    owners = {}
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        owners[id(arr)] = arr.nbytes
    return sum(owners.values())


def _cached(key: Hashable, build: Callable[[], _T], nbytes: Callable[[_T], int]) -> _T:
    """The value kept under ``key`` in the library's one least-recently-used
    cache, or else ``build()``, kept when its charge ``nbytes(value)`` fits
    the byte budget, the least recently used entries leaving until the
    total does.  Every later caller shares a kept value, so ``build`` hands
    over only read-only arrays and objects nobody mutates; a build that
    raises keeps nothing."""
    hit = _cache.get(key)
    if hit is not None:
        _cache.move_to_end(key)
        return hit[0]
    value = build()
    size = nbytes(value)
    if size <= _CACHE_BYTES:
        _cache[key] = (value, size)
        total = sum(charge for _, charge in _cache.values())
        while total > _CACHE_BYTES:
            total -= _cache.popitem(last=False)[1][1]
    return value
