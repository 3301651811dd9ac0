"""Enumerable distinguisher families, graded ladders, and best-response search.

A distinguisher is a [0, 1]-valued function with a declared complexity label
(s1, s2): s1 counts base-family oracle calls, s2 budgets post-processing
gates.  Signs live outside the family; the best-response scan tries both
signs of every member.  Nested families form a totally ordered ladder, the
desk-scale stand-in for a graded complexity lattice: exact search over all
circuits of a given size is out of reach, but a monotone chain of explicit
families supports every construction built here.

Best-response search is exhaustive, so its slack is exactly zero; the slack
field survives so an approximate oracle can be swapped in later.
"""

from __future__ import annotations

import functools
import itertools
import mmap
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import MIN_ACCURACY, STRUCT_TOL, BoundedFn, Distribution, FiniteDomain
from .errors import (
    CapExceededError,
    EmptyFamilyError,
    DomainMismatchError,
    LadderExhaustedError,
    ValidationError,
)

DEFAULT_FAMILY_CAP = 65536


@dataclass(frozen=True, order=False)
class ComplexityLabel:
    """An (s1, s2) complexity budget under the componentwise partial order."""

    s1: int
    s2: int

    def __post_init__(self):
        if self.s1 < 0 or self.s2 < 0:
            raise ValidationError("complexity label components must be nonnegative")

    def le(self, other: "ComplexityLabel") -> bool:
        return self.s1 <= other.s1 and self.s2 <= other.s2

    def __add__(self, other: "ComplexityLabel") -> "ComplexityLabel":
        return ComplexityLabel(self.s1 + other.s1, self.s2 + other.s2)

    def scale(self, c: int) -> "ComplexityLabel":
        return ComplexityLabel(self.s1 * c, self.s2 * c)

    def join(self, other: "ComplexityLabel") -> "ComplexityLabel":
        return ComplexityLabel(max(self.s1, other.s1), max(self.s2, other.s2))

    def to_json(self) -> list[int]:
        return [self.s1, self.s2]


@dataclass(frozen=True)
class Distinguisher:
    """A single [0, 1]-valued test with provenance string and label."""

    values: BoundedFn
    label: ComplexityLabel = ComplexityLabel(1, 0)
    descriptor: str = "distinguisher"


class Family:
    """A nonempty, deterministically ordered family of distinguishers on one
    domain: ``matrix`` is the (m, N) array of member values, row order =
    enumeration order, with one entry of ``descriptors`` and ``labels`` per row.

    The matrix is taken without a copy and made read-only, so a builder fills
    one array in place; ``family[i]`` builds a ``Distinguisher`` when asked.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        descriptors: Sequence[str],
        labels: Sequence[ComplexityLabel],
        name: str = "family",
    ):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape[:1] == (0,):
            raise EmptyFamilyError("a family must have at least one member")
        if matrix.ndim != 2 or matrix.shape[1] == 0:
            raise ValidationError(f"a family matrix must be (m, N) with N >= 1, got {matrix.shape}")
        self.descriptors, self.labels = tuple(descriptors), tuple(labels)
        if not len(self.descriptors) == len(self.labels) == matrix.shape[0]:
            raise ValidationError("a family needs one descriptor and one label per row")
        # min/max propagate NaN, so one comparison also rejects non-finite rows
        if not (matrix.min() >= 0.0 and matrix.max() <= 1.0):
            raise ValidationError("family values must be finite and lie in [0, 1]")
        matrix.setflags(write=False)
        self.matrix = matrix
        self.name = name
        self.domain_size = matrix.shape[1]
        # the join of every row's label, taken componentwise
        self.label = ComplexityLabel(
            max(lbl.s1 for lbl in self.labels), max(lbl.s2 for lbl in self.labels)
        )

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def by_point(self) -> np.ndarray:
        """Read-only point-major (N, m) copy of ``matrix``: row x holds every
        member's value at point x.  Built on first use and kept for the
        family's lifetime, so it costs m * N * 8 bytes from then on; only
        ``boosting.multicalibrate`` reads it."""
        m, n = self.matrix.shape
        # An anonymous mapping of its own, released whole when the family
        # is freed.  From the malloc heap (np.empty) the copy stayed
        # resident after the family was gone, and the next large build
        # peaked about 13 MiB higher (boost-wide benchmark, m = 364).
        by_point = np.frombuffer(mmap.mmap(-1, 8 * m * n), dtype=float).reshape(n, m)
        # 32 members at a time: on a 2-core Xeon this ran 1.5-3x faster than
        # one strided copy at m = 364, N = 8192 and m = 420, N = 16384
        for start in range(0, len(self), 32):
            by_point[:, start : start + 32] = self.matrix[start : start + 32].T
        by_point.setflags(write=False)
        return by_point

    def __getitem__(self, i: int) -> Distinguisher:
        return Distinguisher(BoundedFn(self.matrix[i]), self.labels[i], self.descriptors[i])

    def extended(
        self,
        rows: Sequence[np.ndarray],
        descriptors: Sequence[str],
        labels: Sequence[ComplexityLabel],
        name: str | None = None,
    ) -> "Family":
        """This family with ``rows`` (and their descriptors and labels) appended."""
        return Family(
            np.vstack([self.matrix, *rows]),
            self.descriptors + tuple(descriptors),
            self.labels + tuple(labels),
            name=name or self.name,
        )


@dataclass(frozen=True)
class BestResponse:
    """Maximizer of the signed correlation over a family.

    ``correlation`` is the signed value E[(sign * f)(g - h)] of the winner,
    which the exhaustive scan makes the exact maximum (slack 0).  Ties break
    to the lowest member index, then to sign +1.
    """

    distinguisher: Distinguisher
    index: int
    sign: int
    correlation: float
    slack: float = 0.0


def best_response(
    family: Family, g: BoundedFn, h: BoundedFn, dist: Distribution
) -> BestResponse:
    """Exhaustively maximize sigma * E[f (g - h)] over sigma in {+1, -1}, f in F."""
    if family.domain_size != dist.size:
        raise DomainMismatchError(dist.size, family.domain_size, "family")
    if g.size != dist.size or h.size != dist.size:
        raise DomainMismatchError(dist.size, g.size if g.size != dist.size else h.size, "function")
    residual = dist.weights * (g.values - h.values)
    corr = family.matrix @ residual
    # Candidate order (member 0 +, member 0 -, member 1 +, ...) makes argmax's
    # first-hit rule implement the documented tie-break.
    candidates = np.stack([corr, -corr], axis=1).reshape(-1)
    flat = int(np.argmax(candidates))
    index, sign = divmod(flat, 2)
    sign = +1 if sign == 0 else -1
    return BestResponse(
        distinguisher=family[index],
        index=index,
        sign=sign,
        correlation=float(candidates[flat]),
    )


@dataclass(frozen=True)
class FamilyDistance:
    """max_f |E_P[f] - E_Q[f]| with the index of the witnessing member."""

    value: float
    index: int


def family_distance(family: Family, p: Distribution, q: Distribution) -> FamilyDistance:
    """Best distinguishing advantage of the family between two distributions.

    Raw nonnegative measures are accepted for q/p via Distribution only;
    use raw_family_distance for sub-probability vectors.
    """
    gaps = family.matrix @ (p.weights - q.weights)
    return _distance_from_gaps(gaps)


def raw_family_distance(family: Family, p_vec: np.ndarray, q_vec: np.ndarray) -> FamilyDistance:
    """family_distance against raw nonnegative vectors (hat measures)."""
    gaps = family.matrix @ (np.asarray(p_vec, float) - np.asarray(q_vec, float))
    return _distance_from_gaps(gaps)


def _distance_from_gaps(gaps: np.ndarray) -> FamilyDistance:
    idx = int(np.argmax(np.abs(gaps)))
    return FamilyDistance(
        value=float(abs(gaps[idx])),
        index=idx,
    )


# ---------------------------------------------------------------------------
# Family builders
# ---------------------------------------------------------------------------


def build_coordinate_family(dom: FiniteDomain) -> Family:
    """One distinguisher per encoding bit: member i reads bit i of the element.

    Bit order convention: most-significant bit is coordinate 0, so element 2
    of a 2-bit domain (binary 10) has coordinate values (1, 0).
    """
    if dom.bit_width is None:
        raise ValidationError("coordinate family needs a domain with bit_width")
    n = dom.bit_width
    bits = (np.arange(dom.size)[None, :] >> (n - 1 - np.arange(n))[:, None]) & 1
    return Family(
        bits.astype(float),
        [f"coordinate[{i}]" for i in range(n)],
        [ComplexityLabel(1, 0)] * n,
        name=f"coordinates({n} bits)",
    )


def build_threshold_family(h: BoundedFn, grid: Sequence[float]) -> Family:
    """Indicators 1[h(x) > tau] for each tau in a sorted grid of thresholds."""
    grid = [float(t) for t in grid]
    if not grid:
        raise EmptyFamilyError("threshold grid must be nonempty")
    if any(t < 0 or t > 1 for t in grid):
        raise ValidationError("threshold grid values must lie in [0, 1]")
    if any(a > b for a, b in zip(grid, grid[1:])):
        raise ValidationError("threshold grid must be sorted ascending")
    return Family(
        (h.values[None, :] > np.array(grid)[:, None]).astype(float),
        [f"threshold[h > {t!r}]" for t in grid],
        [ComplexityLabel(1, 1)] * len(grid),
        name=f"thresholds({len(grid)})",
    )


def build_rectangle_family(rows: int, cols: int, cap: int = DEFAULT_FAMILY_CAP) -> Family:
    """All rectangle indicators 1_{S x T} on a rows x cols product domain.

    Elements are indexed row-major: element r * cols + c is (row r, col c).
    Every (S, T) pair is enumerated, S-major, so rectangles that coincide as
    subsets (anything with an empty side) appear once per pair.
    """
    if rows < 1 or cols < 1:
        raise ValidationError("rows and cols must be >= 1")
    count = 2 ** (rows + cols)
    if count > cap:
        raise CapExceededError(count, cap, f"rectangle family for {rows}x{cols}")
    r_idx, c_idx = np.divmod(np.arange(rows * cols), cols)
    in_s = ((np.arange(2 ** rows)[:, None] >> r_idx) & 1).astype(bool)
    in_t = ((np.arange(2 ** cols)[:, None] >> c_idx) & 1).astype(bool)
    matrix = (in_s[:, None, :] & in_t[None, :, :]).reshape(count, rows * cols)
    return Family(
        matrix.astype(float),
        [
            f"rectangle[S={s:#x}, T={t:#x}]"
            for s, t in itertools.product(range(2 ** rows), range(2 ** cols))
        ],
        [ComplexityLabel(1, rows + cols)] * count,
        name=f"rectangles({rows}x{cols})",
    )


def explicit_family(
    vectors: Sequence[Sequence[float]],
    name: str = "explicit",
    label: ComplexityLabel = ComplexityLabel(1, 1),
) -> Family:
    """A family with the given value vectors as rows (copied), in order."""
    try:
        matrix = np.array(vectors, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"explicit family members differ in shape: {exc}") from exc
    return Family(
        matrix,
        [f"{name}[{i}]" for i in range(len(matrix))],
        [label] * len(matrix),
        name=name,
    )


# ---------------------------------------------------------------------------
# Post-processing combinators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Combinator:
    """A bounded post-processing shape with a declared gate size.

    ``fn(*args, out=None)`` acts pointwise and broadcasts, like a numpy
    ufunc: applied to arrays of member values it computes
    C(f_1(x), ..., f_a(x)) elementwise, writes it into ``out`` when given
    (an array of the broadcast shape) and returns a fresh array otherwise.
    """

    name: str
    arity: int
    size: int
    fn: Callable[..., np.ndarray]


def _negate(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.subtract(1.0, a, out=out)


def combinator_identity() -> Combinator:
    # np.positive copies, keeping -0.0 as it is
    return Combinator("identity", 1, 0, np.positive)


def combinator_negation() -> Combinator:
    return Combinator("negation", 1, 1, _negate)


def combinator_min() -> Combinator:
    return Combinator("min", 2, 1, np.minimum)


def combinator_max() -> Combinator:
    return Combinator("max", 2, 1, np.maximum)


STANDARD_COMBINATORS = {
    "identity": combinator_identity,
    "negation": combinator_negation,
    "min": combinator_min,
    "max": combinator_max,
}


def compose_level(
    base: Family,
    s1: int,
    s2: int,
    combinators: Sequence[Combinator],
    cap: int = DEFAULT_FAMILY_CAP,
) -> Family:
    """Enumerate C(f_{i1}, ..., f_{ia}) over catalog entries and index tuples.

    Entries of arity above s1 or declared size above s2 are skipped; the
    resulting family is labeled (s1, s2).  Rows come catalog entry by entry,
    index tuples in row-major order (last index fastest), one broadcast call
    of ``fn`` per entry writing straight into that entry's block of the
    output, so no (m^arity, N) temporary is built.
    """
    if s1 < 1:
        raise ValidationError("s1 must be >= 1")
    if s2 < 0:
        raise ValidationError("s2 must be >= 0")
    usable = [c for c in combinators if c.arity <= s1 and c.size <= s2]
    if not usable:
        raise EmptyFamilyError("no catalog entry fits within (s1, s2)")
    m, n = base.matrix.shape
    total = sum(m ** c.arity for c in usable)
    if total > cap:
        raise CapExceededError(total, cap, "composed family")
    matrix = np.empty((total, n))
    descriptors = []
    start = 0
    for comb in usable:
        count, grid = m ** comb.arity, (m,) * comb.arity
        # argument j varies along axis j of an (m, ..., m, N) grid
        args = [
            base.matrix.reshape((1,) * j + (m,) + (1,) * (comb.arity - 1 - j) + (n,))
            for j in range(comb.arity)
        ]
        block = matrix[start:start + count]
        comb.fn(*args, out=block.reshape(grid + (n,)))
        lo, hi = block.min(axis=1), block.max(axis=1)
        outside = (lo < -STRUCT_TOL) | (hi > 1 + STRUCT_TOL)
        if outside.any():
            tup = tuple(int(i) for i in np.unravel_index(int(np.argmax(outside)), grid))
            raise ValidationError(f"combinator {comb.name} left [0, 1] on inputs {tup}")
        # clip leaves values in [0, 1] (and -0.0) as they are, so a block
        # already inside skips the pass
        if not (lo.min() >= 0.0 and hi.max() <= 1.0):
            np.clip(block, 0.0, 1.0, out=block)
        descriptors.extend(
            f"{comb.name}({', '.join(tup)})"
            for tup in itertools.product(base.descriptors, repeat=comb.arity)
        )
        start += count
    return Family(
        matrix,
        descriptors,
        [ComplexityLabel(s1, s2)] * total,
        name=f"compose({base.name}; s1={s1}, s2={s2})",
    )


# ---------------------------------------------------------------------------
# Graded ladders, growth maps, error schedules
# ---------------------------------------------------------------------------


class GradedLadder:
    """A finite chain of nested families with nondecreasing labels.

    Nesting is by value: every member value-vector of level i must appear in
    level i+1, with -0.0 equal to 0.0.  Each distinct level gets one float
    key per row, its dot product with ``_row_key_weights``; a lower row's
    candidate is the upper row whose key matches, and the two are compared
    exactly.  Rows without an exactly equal candidate (a key collision, or
    a row that is really missing) go to the exact test on row bytes
    (``_missing_by_bytes``), so the verdict never rests on a key.  Levels
    may repeat, which is how shallow chains are padded to the depth a
    construction needs; a repeated level is not compared with itself.
    """

    def __init__(self, levels: Sequence[Family], name: str = "ladder"):
        levels = list(levels)
        if not levels:
            raise ValidationError("a ladder needs at least one level")
        n = levels[0].domain_size
        for i, lvl in enumerate(levels):
            if lvl.domain_size != n:
                raise DomainMismatchError(n, lvl.domain_size, f"ladder level {i}")
        keys: dict[int, np.ndarray] = {}  # id of a distinct level -> its row keys
        for i in range(len(levels) - 1):
            lower, upper = levels[i], levels[i + 1]
            if lower is upper:
                continue
            for lvl in (lower, upper):
                if id(lvl) not in keys:
                    # einsum sums each row in the same order whatever matrix
                    # holds it, so equal rows get equal keys; a BLAS matvec
                    # gave equal rows different keys in different matrices
                    keys[id(lvl)] = np.einsum("ij,j->i", lvl.matrix, _row_key_weights(n))
            if not _nested(lower.matrix, keys[id(lower)], upper.matrix, keys[id(upper)]):
                raise ValidationError(
                    f"ladder levels not nested: level {i} has a member missing from level {i + 1}"
                )
            if not levels[i].label.le(levels[i + 1].label):
                raise ValidationError(
                    f"ladder labels must be nondecreasing: level {i} -> {i + 1}"
                )
        self.levels: tuple[Family, ...] = tuple(levels)
        self.name = name
        self.domain_size = n

    @property
    def depth(self) -> int:
        return len(self.levels)

    def __getitem__(self, i: int) -> Family:
        return self.levels[i]

    def label_of(self, i: int) -> ComplexityLabel:
        return self.levels[i].label

    def padded(self, depth: int) -> "GradedLadder":
        """Extend to the requested depth by repeating the top level."""
        if depth <= self.depth:
            return self
        levels = list(self.levels) + [self.levels[-1]] * (depth - self.depth)
        return GradedLadder(levels, name=self.name)


@functools.lru_cache(maxsize=8)
def _row_key_weights(n: int) -> np.ndarray:
    """The fixed weights, uniform on [0.5, 1) and seeded by N, that turn a
    ladder row into its key; read-only, since callers share them."""
    weights = np.random.default_rng(n).uniform(0.5, 1.0, size=n)
    weights.setflags(write=False)
    return weights


def _nested(
    lower: np.ndarray, lower_keys: np.ndarray, upper: np.ndarray, upper_keys: np.ndarray
) -> bool:
    """Whether every row of ``lower`` is a row of ``upper`` (-0.0 == 0.0).

    Each lower row is compared with ``==`` to the first upper row of its
    key; only the rows that candidate does not equal reach the exact
    fallback."""
    order = np.argsort(upper_keys, kind="stable")
    pos = np.searchsorted(upper_keys[order], lower_keys)
    candidates = order[np.minimum(pos, len(order) - 1)]
    matched = (upper[candidates] == lower).all(axis=1)
    return bool(matched.all()) or not _missing_by_bytes(lower[~matched], upper)


def _missing_by_bytes(rows: np.ndarray, upper: np.ndarray) -> bool:
    """Whether some row of ``rows`` is absent from ``upper``, comparing the
    bytes of rows with -0.0 made 0.0."""
    present = {row.tobytes() for row in upper + 0.0}
    return any(row.tobytes() not in present for row in rows + 0.0)


class GrowthMap:
    """A monotone map on ladder levels with an induced action on labels.

    The stored table may point past the top of the ladder; applying the map
    there raises LadderExhaustedError, which is how a run reports that the
    chain ran out before the construction terminated.
    """

    def __init__(
        self,
        depth: int,
        table: Sequence[int],
        label_map: Callable[[ComplexityLabel], ComplexityLabel],
        name: str = "growth",
    ):
        table = tuple(int(t) for t in table)
        if len(table) != depth:
            raise ValidationError("growth table length must equal ladder depth")
        for i, t in enumerate(table):
            if t < i:
                raise ValidationError(f"growth map must satisfy map(i) >= i, got {t} at {i}")
        if any(a > b for a, b in zip(table, table[1:])):
            raise ValidationError("growth map must be nondecreasing")
        self.depth = depth
        self.table = table
        self.label_map = label_map
        self.name = name

    @classmethod
    def identity(cls, ladder: GradedLadder) -> "GrowthMap":
        return cls(ladder.depth, range(ladder.depth), lambda lbl: lbl, name="identity")

    @classmethod
    def shift(cls, ladder: GradedLadder, by: int) -> "GrowthMap":
        if by < 0:
            raise ValidationError("shift must be nonnegative")
        table = [i + by for i in range(ladder.depth)]
        return cls(
            ladder.depth,
            table,
            _induced_label_map(ladder, table),
            name=f"shift+{by}",
        )

    @classmethod
    def explicit(
        cls,
        ladder: GradedLadder,
        table: Sequence[int],
        label_map: Callable[[ComplexityLabel], ComplexityLabel] | None = None,
    ) -> "GrowthMap":
        table = list(table)
        return cls(
            ladder.depth,
            table,
            label_map or _induced_label_map(ladder, table),
            name="explicit",
        )


def _induced_label_map(ladder: GradedLadder, table: Sequence[int]):
    """Action on labels induced by the index map: send a label to the label of
    the mapped image of the lowest level that dominates it.  Labels beyond
    the ladder saturate to their join with the top label, so formal
    recurrences stay monotone past the chain's reach."""
    labels = [ladder.label_of(i) for i in range(ladder.depth)]
    table = list(table)
    # Only the first level of a run of equal labels can be the lowest that
    # dominates, so the scan skips the rest of each run.
    firsts = [j for j in range(len(labels)) if j == 0 or labels[j] != labels[j - 1]]

    def label_map(lbl: ComplexityLabel) -> ComplexityLabel:
        for j in firsts:
            if lbl.le(labels[j]):
                return labels[min(table[j], ladder.depth - 1)]
        return labels[-1].join(lbl)

    return label_map


def apply_growth(growth: GrowthMap, level: int, phi: float | None = None) -> int:
    """Apply the growth map at a level, failing loudly when the ladder runs out."""
    if level < 0 or level >= growth.depth:
        raise ValidationError(f"level {level} outside ladder of depth {growth.depth}")
    target = growth.table[level]
    if target >= growth.depth:
        raise LadderExhaustedError(growth.name, level, growth.depth, phi)
    return target


class ErrorSchedule:
    """A nonincreasing per-level error tolerance in (0, 1/2).

    Indices past the end of the stored values reuse the last one, so a short
    schedule behaves as eventually constant.
    """

    def __init__(self, values: Sequence[float]):
        values = [float(v) for v in values]
        if not values:
            raise ValidationError("error schedule needs at least one value")
        for v in values:
            if not (0.0 < v < 0.5):
                raise ValidationError("schedule values must lie in (0, 0.5)")
            if v < MIN_ACCURACY:
                raise ValidationError("schedule values must be at least 2^-100")
        if any(a < b for a, b in zip(values, values[1:])):
            raise ValidationError("error schedule must be nonincreasing")
        self.values = tuple(values)

    @classmethod
    def constant(cls, eps: float) -> "ErrorSchedule":
        return cls([eps])

    @classmethod
    def geometric(cls, start: float, factor: float, depth: int, floor: float = 1e-3) -> "ErrorSchedule":
        if not (0 < factor <= 1):
            raise ValidationError("geometric factor must lie in (0, 1]")
        vals = []
        v = start
        for _ in range(depth):
            vals.append(max(v, floor))
            v *= factor
        return cls(vals)

    def eps_at(self, level: int) -> float:
        if level < 0:
            raise ValidationError("schedule level must be nonnegative")
        return self.values[min(level, len(self.values) - 1)]
