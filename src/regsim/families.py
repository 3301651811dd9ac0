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

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .domain import STRUCT_TOL, BoundedFn, Distribution, FiniteDomain
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

    @property
    def size(self) -> int:
        return self.values.size


class Family:
    """A nonempty, deterministically ordered list of distinguishers on one domain."""

    def __init__(self, members: Sequence[Distinguisher], name: str = "family"):
        members = list(members)
        if not members:
            raise EmptyFamilyError("a family must have at least one member")
        n = members[0].size
        for i, m in enumerate(members):
            if m.size != n:
                raise DomainMismatchError(n, m.size, f"family member {i}")
        self.members: tuple[Distinguisher, ...] = tuple(members)
        self.name = name
        self.domain_size = n
        label = members[0].label
        for m in members[1:]:
            label = label.join(m.label)
        self.label = label
        matrix = np.stack([m.values.values for m in members])
        matrix.setflags(write=False)
        self._matrix = matrix

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i: int) -> Distinguisher:
        return self.members[i]

    @property
    def matrix(self) -> np.ndarray:
        """(m, N) matrix of member values, row order = enumeration order."""
        return self._matrix

    def extended(self, extra: Sequence[Distinguisher], name: str | None = None) -> "Family":
        return Family(list(self.members) + list(extra), name=name or self.name)

    def value_set(self) -> set[tuple[float, ...]]:
        return {tuple(row) for row in self._matrix}


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
    """max_f |E_P[f] - E_Q[f]| with the witnessing member."""

    value: float
    index: int
    witness: Distinguisher
    signed_gap: float


def family_distance(family: Family, p: Distribution, q: Distribution) -> FamilyDistance:
    """Best distinguishing advantage of the family between two distributions.

    Raw nonnegative measures are accepted for q/p via Distribution only;
    use raw_family_distance for sub-probability vectors.
    """
    gaps = family.matrix @ (p.weights - q.weights)
    return _distance_from_gaps(family, gaps)


def raw_family_distance(family: Family, p_vec: np.ndarray, q_vec: np.ndarray) -> FamilyDistance:
    """family_distance against raw nonnegative vectors (hat measures)."""
    gaps = family.matrix @ (np.asarray(p_vec, float) - np.asarray(q_vec, float))
    return _distance_from_gaps(family, gaps)


def _distance_from_gaps(family: Family, gaps: np.ndarray) -> FamilyDistance:
    idx = int(np.argmax(np.abs(gaps)))
    return FamilyDistance(
        value=float(abs(gaps[idx])),
        index=idx,
        witness=family[idx],
        signed_gap=float(gaps[idx]),
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
    members = []
    elements = np.arange(dom.size)
    for i in range(n):
        bit = (elements >> (n - 1 - i)) & 1
        members.append(
            Distinguisher(
                values=BoundedFn(bit.astype(float)),
                label=ComplexityLabel(1, 0),
                descriptor=f"coordinate[{i}]",
            )
        )
    return Family(members, name=f"coordinates({n} bits)")


def build_threshold_family(h: BoundedFn, grid: Sequence[float]) -> Family:
    """Indicators 1[h(x) > tau] for each tau in a sorted grid of thresholds."""
    grid = [float(t) for t in grid]
    if not grid:
        raise EmptyFamilyError("threshold grid must be nonempty")
    if any(t < 0 or t > 1 for t in grid):
        raise ValidationError("threshold grid values must lie in [0, 1]")
    if any(a > b for a, b in zip(grid, grid[1:])):
        raise ValidationError("threshold grid must be sorted ascending")
    members = [
        Distinguisher(
            values=BoundedFn((h.values > t).astype(float)),
            label=ComplexityLabel(1, 1),
            descriptor=f"threshold[h > {t!r}]",
        )
        for t in grid
    ]
    return Family(members, name=f"thresholds({len(grid)})")


def build_rectangle_family(rows: int, cols: int, cap: int = DEFAULT_FAMILY_CAP) -> Family:
    """All rectangle indicators 1_{S x T} on a rows x cols product domain.

    Elements are indexed row-major: element r * cols + c is (row r, col c).
    Every (S, T) pair is enumerated, so rectangles that coincide as subsets
    (anything with an empty side) appear once per pair.
    """
    if rows < 1 or cols < 1:
        raise ValidationError("rows and cols must be >= 1")
    count = 2 ** (rows + cols)
    if count > cap:
        raise CapExceededError(count, cap, f"rectangle family for {rows}x{cols}")
    r_idx, c_idx = np.divmod(np.arange(rows * cols), cols)
    members = []
    for s_mask in range(2 ** rows):
        in_s = ((s_mask >> r_idx) & 1).astype(bool)
        for t_mask in range(2 ** cols):
            in_t = ((t_mask >> c_idx) & 1).astype(bool)
            members.append(
                Distinguisher(
                    values=BoundedFn((in_s & in_t).astype(float)),
                    label=ComplexityLabel(1, rows + cols),
                    descriptor=f"rectangle[S={s_mask:#x}, T={t_mask:#x}]",
                )
            )
    return Family(members, name=f"rectangles({rows}x{cols})")


def explicit_family(
    vectors: Sequence[Sequence[float]],
    name: str = "explicit",
    label: ComplexityLabel = ComplexityLabel(1, 1),
) -> Family:
    members = [
        Distinguisher(
            values=BoundedFn(np.asarray(v, dtype=float)),
            label=label,
            descriptor=f"{name}[{i}]",
        )
        for i, v in enumerate(vectors)
    ]
    return Family(members, name=name)


# ---------------------------------------------------------------------------
# Post-processing combinators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Combinator:
    """A bounded post-processing shape with a declared gate size."""

    name: str
    arity: int
    size: int
    fn: Callable[..., np.ndarray]


def combinator_identity() -> Combinator:
    return Combinator("identity", 1, 0, lambda a: a)


def combinator_negation() -> Combinator:
    return Combinator("negation", 1, 1, lambda a: 1.0 - a)


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
    resulting family is labeled (s1, s2).
    """
    if s1 < 1:
        raise ValidationError("s1 must be >= 1")
    if s2 < 0:
        raise ValidationError("s2 must be >= 0")
    usable = [c for c in combinators if c.arity <= s1 and c.size <= s2]
    if not usable:
        raise EmptyFamilyError("no catalog entry fits within (s1, s2)")
    total = sum(len(base) ** c.arity for c in usable)
    if total > cap:
        raise CapExceededError(total, cap, "composed family")
    label = ComplexityLabel(s1, s2)
    members = []
    for comb in usable:
        indices = [()] if comb.arity == 0 else _index_tuples(len(base), comb.arity)
        for tup in indices:
            args = [base[i].values.values for i in tup]
            out = np.asarray(comb.fn(*args), dtype=float)
            if np.any(out < -STRUCT_TOL) or np.any(out > 1 + STRUCT_TOL):
                raise ValidationError(
                    f"combinator {comb.name} left [0, 1] on inputs {tup}"
                )
            desc = f"{comb.name}({', '.join(base[i].descriptor for i in tup)})"
            members.append(
                Distinguisher(
                    values=BoundedFn(np.clip(out, 0.0, 1.0)),
                    label=label,
                    descriptor=desc,
                )
            )
    return Family(members, name=f"compose({base.name}; s1={s1}, s2={s2})")


def _index_tuples(m: int, arity: int) -> Iterable[tuple[int, ...]]:
    if arity == 1:
        return [(i,) for i in range(m)]
    out = [()]
    for _ in range(arity):
        out = [t + (i,) for t in out for i in range(m)]
    return out


# ---------------------------------------------------------------------------
# Graded ladders, growth maps, error schedules
# ---------------------------------------------------------------------------


class GradedLadder:
    """A finite chain of nested families with nondecreasing labels.

    Nesting is by value: every member value-vector of level i must appear in
    level i+1.  Levels may repeat, which is how shallow chains are padded to
    the depth a construction needs.
    """

    def __init__(self, levels: Sequence[Family], name: str = "ladder"):
        levels = list(levels)
        if not levels:
            raise ValidationError("a ladder needs at least one level")
        n = levels[0].domain_size
        for i, lvl in enumerate(levels):
            if lvl.domain_size != n:
                raise DomainMismatchError(n, lvl.domain_size, f"ladder level {i}")
        for i in range(len(levels) - 1):
            lower = levels[i].value_set()
            upper = levels[i + 1].value_set()
            if not lower <= upper:
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

    def label_map(lbl: ComplexityLabel) -> ComplexityLabel:
        for j, lj in enumerate(labels):
            if lbl.le(lj):
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
