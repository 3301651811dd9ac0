"""Enumerable distinguisher families, graded ladders, and best-response search.

A distinguisher is a [0, 1]-valued function with a declared complexity label
(s1, s2): s1 counts base-family oracle calls, s2 budgets post-processing
gates.  Signs live outside the family; the best-response scan tries both
signs of every member.  Nested families form a totally ordered ladder, the
desk-scale stand-in for a graded complexity lattice: exact search over all
circuits of a given size is out of reach, but a monotone chain of explicit
families supports every construction built here.

A member crosses a module boundary as its index: ``best_response`` and
``family_distance`` return the index of their witness, and callers read
``family.descriptors`` and ``family.labels`` at it, and its values at
``family.matrix[family.rows[index]]``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import (
    MIN_ACCURACY,
    STRUCT_TOL,
    BoundedFn,
    Distribution,
    FiniteDomain,
    MeasureLike,
    _measure_vector,
)
from .errors import (
    CapExceededError,
    EmptyFamilyError,
    DomainMismatchError,
    LadderExhaustedError,
    ValidationError,
)

DEFAULT_FAMILY_CAP = 65536

_OUT_OF_RANGE = "family values must be finite and lie in [0, 1]"


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

    def join(self, other: "ComplexityLabel") -> "ComplexityLabel":
        return ComplexityLabel(max(self.s1, other.s1), max(self.s2, other.s2))

    def to_json(self) -> list[int]:
        return [self.s1, self.s2]


class Descriptors(Sequence):
    """Member descriptors held as their parts and formatted when read.

    A part (name, arity, base, count) stands for ``count`` members: member t
    of it reads f"{name}({base[i1]}, ..., {base[ia]})" for the t-th index
    tuple over ``base`` in row-major order (last index fastest), or reads
    base[t] when ``name`` is None.  ``compose_level`` keeps one part per
    catalog entry, so a family's strings are built only for the entries a
    caller reads.  It compares equal, entry by entry, to any sequence of
    the same strings; a prefix slice stays lazy, any other slice is a
    tuple, and ``+`` appends a tuple's strings as one more part."""

    def __init__(self, parts):
        self._parts = tuple(parts)
        self._ends = list(itertools.accumulate(part[3] for part in self._parts))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(len(self))
            if (start, step) != (0, 1):
                return tuple(self[j] for j in range(start, stop, step))
            return Descriptors(
                (name, arity, base, min(count, stop - end + count))
                for (name, arity, base, count), end in zip(self._parts, self._ends)
                if end - count < stop
            )
        i = range(len(self))[i]  # an int in range, negatives counted from the end
        k = bisect.bisect_right(self._ends, i)
        name, arity, base, count = self._parts[k]
        t = i - self._ends[k] + count
        if name is None:
            return base[t]
        args = []
        for _ in range(arity):
            t, j = divmod(t, len(base))
            args.append(base[j])
        return f"{name}({', '.join(reversed(args))})"

    def __add__(self, other: Sequence[str]) -> "Descriptors":
        other = tuple(other)
        return Descriptors(self._parts + ((None, 1, other, len(other)),))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


class Family:
    """A nonempty, deterministically ordered family of m distinguishers on
    one domain, with one entry of ``descriptors`` and ``labels`` per member.

    ``matrix`` is the (d, N) array of the members' distinct value rows and
    ``rows`` the (m,) map from member to row: member i's values are
    ``matrix[rows[i]]``.  Rows are stored in order of first occurrence, so
    ``firsts[r]``, the lowest member whose row is r, increases with r, and
    a scan over rows that keeps the first maximum keeps the lowest member.
    A family built from a matrix maps member i to row i; only
    ``compose_level`` (and the families derived from it) stores a twin
    member once.

    The matrix is taken without a copy and made read-only, so a builder fills
    one array in place.
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
        self._adopt(matrix, descriptors, labels, name, checked=0)

    @classmethod
    def _in_range(
        cls,
        matrix: np.ndarray,
        descriptors: Sequence[str],
        labels: Sequence[ComplexityLabel],
        name: str,
        rows: np.ndarray | None = None,
    ) -> "Family":
        """A family over a float (d, N) matrix, d, N >= 1, that its builder
        has already read and found finite and inside [0, 1], so it is not
        scanned again.  ``rows`` maps each member to its row, every row
        first used in row order; None maps member i to row i."""
        family = cls.__new__(cls)
        family._adopt(matrix, descriptors, labels, name, checked=len(matrix), rows=rows)
        return family

    def _adopt(
        self, matrix, descriptors, labels, name, checked: int, rows=None, firsts=None, label=None
    ) -> None:
        """Take ``matrix`` as the family's rows, range-checking the rows from
        ``checked`` on: the leading ones were checked by whoever built them.
        ``firsts`` and ``label``, when given, are the caller's, which knows
        them without a scan of every member (``extended``)."""
        self.descriptors = descriptors if isinstance(descriptors, Descriptors) else tuple(descriptors)
        self.labels = tuple(labels)
        if rows is None:
            rows = firsts = np.arange(matrix.shape[0])
        elif firsts is None:
            firsts = np.full(matrix.shape[0], len(rows))
            np.minimum.at(firsts, rows, np.arange(len(rows)))
        if not len(self.descriptors) == len(self.labels) == len(rows):
            raise ValidationError("a family needs one descriptor and one label per member")
        # min/max propagate NaN, so one comparison also rejects non-finite rows
        fresh = matrix[checked:]
        if fresh.size and not (fresh.min() >= 0.0 and fresh.max() <= 1.0):
            raise ValidationError(_OUT_OF_RANGE)
        for arr in (matrix, rows, firsts):
            arr.setflags(write=False)
        self.matrix, self.rows, self.firsts = matrix, rows, firsts
        self.name = name
        self.domain_size = matrix.shape[1]
        if label is None:
            # the join of the row labels, taken componentwise; builders mostly
            # repeat one label, which one count (identity first) finds is the join
            first, labels = self.labels[0], self.labels
            label = first if labels.count(first) == len(labels) else ComplexityLabel(
                max(lbl.s1 for lbl in labels), max(lbl.s2 for lbl in labels)
            )
        self.label = label

    def __len__(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def by_point(self) -> np.ndarray:
        """Read-only point-major (N, d) copy of ``matrix``: row x holds every
        distinct row's value at point x.  Built on first use (only
        ``boosting.multicalibrate`` reads it) and kept for the family's
        lifetime: d * N * 8 bytes, from numpy's heap, where glibc keeps the
        free room of the last large family.  A private mmap sat on top of
        that room: boost-wide's peak RSS went 98.8 -> 86.7 MiB when the copy
        moved to the heap (d = 182, N = 8192, after 210 x 16384 families)."""
        d, n = self.matrix.shape
        by_point = np.empty((n, d))
        # 32 rows at a time: on a 2-core Xeon this ran 1.5-3x faster than
        # one strided copy at d = 364, N = 8192 and d = 420, N = 16384
        for start in range(0, d, 32):
            by_point[:, start : start + 32] = self.matrix[start : start + 32].T
        by_point.setflags(write=False)
        return by_point

    def extended(
        self,
        rows: Sequence[np.ndarray],
        descriptors: Sequence[str],
        labels: Sequence[ComplexityLabel],
        name: str | None = None,
    ) -> "Family":
        """This family with ``rows`` (and their descriptors and labels)
        appended as new members, each stored as a row of its own.  Only the
        appended rows are range-checked (one min/max pair); this family's
        rows were checked when it was built, and its ``firsts`` and label
        are extended rather than recomputed over every member."""
        matrix = np.vstack([self.matrix, *rows])
        d, m, labels = len(self.matrix), len(self), tuple(labels)
        family = Family.__new__(Family)
        family._adopt(
            matrix,
            self.descriptors + tuple(descriptors),
            self.labels + labels,
            name or self.name,
            checked=d,
            rows=np.concatenate([self.rows, np.arange(d, len(matrix))]),
            firsts=np.concatenate([self.firsts, np.arange(m, m + len(matrix) - d)]),
            label=functools.reduce(ComplexityLabel.join, labels, self.label),
        )
        return family


@dataclass(frozen=True)
class BestResponse:
    """Maximizer of the signed correlation over a family.

    ``correlation`` is the signed value E[(sign * f)(g - h)] of the winner
    f = ``family.matrix[family.rows[index]]``, which the exhaustive scan
    makes the exact maximum.  Ties break to the lowest member index, then
    to sign +1.
    """

    index: int
    sign: int
    correlation: float


def best_response(
    family: Family, g: BoundedFn, h: BoundedFn, dist: Distribution
) -> BestResponse:
    """Exhaustively maximize sigma * E[f (g - h)] over sigma in {+1, -1}, f in F.

    One matvec over the family's distinct rows scores every member; twin
    members share their row's score.  The winner is the larger of the top
    row score (sign +1, ``argmax``) and the negated bottom one (sign -1,
    ``argmin``), each the first row attaining it.  Ties, -0.0 equal to 0.0,
    break to the lowest row (so the lowest member, rows being stored in
    order of their lowest member), then to sign +1: the first maximum of
    the interleaved candidates (row 0 +, row 0 -, row 1 +, ...).  The
    reported correlation is the winning candidate itself, so a zero
    residual reports row 0, sign +1 and that row's score, -0.0 included."""
    if family.domain_size != dist.size:
        raise DomainMismatchError(dist.size, family.domain_size, "family")
    if g.size != dist.size or h.size != dist.size:
        raise DomainMismatchError(dist.size, g.size if g.size != dist.size else h.size, "function")
    residual = g.values - h.values
    residual *= dist.weights
    corr = family.matrix @ residual
    top, bottom = int(corr.argmax()), int(corr.argmin())
    high, low = float(corr[top]), -float(corr[bottom])
    if high > low or (high == low and top <= bottom):
        return BestResponse(index=int(family.firsts[top]), sign=+1, correlation=high)
    return BestResponse(index=int(family.firsts[bottom]), sign=-1, correlation=low)


@dataclass(frozen=True)
class FamilyDistance:
    """max_f |E_P[f] - E_Q[f]| with the index of the witnessing member."""

    value: float
    index: int


def family_distance(family: Family, p: MeasureLike, q: MeasureLike) -> FamilyDistance:
    """Best distinguishing advantage of the family between two measures,
    each a Distribution or a raw nonnegative vector (such as a hat measure)."""
    pv = _measure_vector(p, family.domain_size, "first measure")
    gaps = family.matrix @ (pv - _measure_vector(q, family.domain_size, "second measure"))
    row = int(np.argmax(np.abs(gaps)))
    return FamilyDistance(value=float(abs(gaps[row])), index=int(family.firsts[row]))


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
    # written so that NaN, which compares false both ways, is refused
    if not all(0 <= t <= 1 for t in grid):
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

    ``semilattice`` declares a binary ``fn`` commutative and idempotent,
    C(a, b) = C(b, a) and C(a, a) = a, as min and max are, so that
    ``compose_level`` computes each unordered pair of rows once.  A
    combinator built without it is taken as it is.
    """

    name: str
    arity: int
    size: int
    fn: Callable[..., np.ndarray]
    semilattice: bool = False


def _negate(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.subtract(1.0, a, out=out)


def combinator_identity() -> Combinator:
    # np.positive copies, keeping -0.0 as it is
    return Combinator("identity", 1, 0, np.positive)


def combinator_negation() -> Combinator:
    return Combinator("negation", 1, 1, _negate)


def combinator_min() -> Combinator:
    return Combinator("min", 2, 1, np.minimum, semilattice=True)


def combinator_max() -> Combinator:
    return Combinator("max", 2, 1, np.maximum, semilattice=True)


STANDARD_COMBINATORS = {
    "identity": combinator_identity,
    "negation": combinator_negation,
    "min": combinator_min,
    "max": combinator_max,
}


def compose_entries(
    base: Family,
    s1: int,
    s2: int,
    combinators: Sequence[Combinator],
    cap: int = DEFAULT_FAMILY_CAP,
) -> tuple[Combinator, ...]:
    """The catalog entries ``compose_level(base, s1, s2, combinators, cap)``
    enumerates, in catalog order: those of arity at most s1 and declared
    size at most s2.  Refuses what compose_level refuses, before any member
    value is computed."""
    if s1 < 1:
        raise ValidationError("s1 must be >= 1")
    if s2 < 0:
        raise ValidationError("s2 must be >= 0")
    entries = tuple(c for c in combinators if c.arity <= s1 and c.size <= s2)
    if not entries:
        raise EmptyFamilyError("no catalog entry fits within (s1, s2)")
    total = _member_count(len(base), entries)
    if total > cap:
        raise CapExceededError(total, cap, "composed family")
    return entries


def _member_count(m: int, entries: Sequence[Combinator]) -> int:
    """Members of the entries' blocks over m base members: m^arity each."""
    return sum(m ** c.arity for c in entries)


def _is_identity(comb: Combinator) -> bool:
    return comb.arity == 1 and comb.fn is np.positive


def _stored_rows(d: int, entries: Sequence[Combinator]) -> list[int]:
    """Rows ``compose_level`` stores for each entry over d distinct base
    rows: d^arity, or for a semilattice pair the d(d - 1)/2 pairs i < j,
    plus the d diagonal pairs unless an identity entry comes earlier.  An
    entry's count depends only on the entries before it, so the counts of
    a leading run of entries are the leading counts."""
    counts, identity = [], False
    for comb in entries:
        if comb.semilattice and comb.arity == 2:
            counts.append(d * (d - 1) // 2 if identity else d * (d + 1) // 2)
        else:
            counts.append(d ** comb.arity)
        identity = identity or _is_identity(comb)
    return counts


def _compose_name(base: Family, s1: int, s2: int) -> str:
    return f"compose({base.name}; s1={s1}, s2={s2})"


def compose_level(
    base: Family,
    s1: int,
    s2: int,
    combinators: Sequence[Combinator],
    cap: int = DEFAULT_FAMILY_CAP,
) -> Family:
    """Enumerate C(f_{i1}, ..., f_{ia}) over catalog entries and index tuples.

    Entries of arity above s1 or declared size above s2 are skipped; the
    resulting family is labeled (s1, s2).  Members come catalog entry by
    entry, index tuples over the base members in row-major order (last
    index fastest).

    Twin members share one row, by structure, not by search: an entry acts
    on the base's distinct rows.  A semilattice pair entry stores only the
    pairs i < j, (j, i) mapping to (i, j); its diagonal (i, i) maps to
    identity row i when an identity entry comes earlier, and is stored
    ahead of the pairs (i, j) otherwise.  So rows come in order of their
    first member.  An entry is one broadcast call of ``fn`` over the grid
    of base rows, a pair entry one call per base row against the rows
    after it, each writing straight into the output, so no (m^arity, N)
    temporary is built.  Each block is read once more, by one min and one
    max pass, which is the family's range check; only a block outside
    [0, 1] is read again, row by row.
    """
    entries = compose_entries(base, s1, s2, combinators, cap)
    d, n = base.matrix.shape
    counts = _stored_rows(d, entries)
    matrix = np.empty((sum(counts), n))
    maps, parts = [], []
    start, finite, identity, pairs = 0, True, None, None
    for comb, count in zip(entries, counts):
        block = matrix[start:start + count]
        if comb.semilattice and comb.arity == 2:
            if pairs is None:
                lo = np.minimum.outer(base.rows, base.rows)
                hi = np.maximum.outer(base.rows, base.rows)
                # the rank of the pair of rows (lo, hi) in row-major order
                # over lo <= hi
                pairs, diagonal = lo * (2 * d - lo - 1) // 2 + hi, lo == hi
            skip = int(identity is not None)
            if skip:
                # over lo < hi, each pair ranks lo + 1 lower; the diagonal
                # (i, i) is identity row i
                index = np.where(diagonal, identity + lo, start + pairs - lo - 1)
            else:
                index = start + pairs
            at = 0
            for i, row in enumerate(base.matrix[: d - skip]):
                rest = base.matrix[i + skip:]
                comb.fn(row, rest, out=block[at:at + len(rest)])
                at += len(rest)
        else:
            index = np.zeros((), dtype=np.intp)
            for _ in range(comb.arity):
                index = np.add.outer(index * d, base.rows)
            index += start
            # argument j varies along axis j of a (d, ..., d, N) grid
            args = [
                base.matrix.reshape((1,) * j + (d,) + (1,) * (comb.arity - 1 - j) + (n,))
                for j in range(comb.arity)
            ]
            comb.fn(*args, out=block.reshape((d,) * comb.arity + (n,)))
            if identity is None and _is_identity(comb):
                identity = start
        index = index.ravel()
        # a block inside [0, 1] needs no more (whole-block reductions beat
        # per-row ones about 3x on short rows); clip leaves such values (and
        # -0.0) as they are.  min/max propagate NaN, which clip keeps, so a
        # NaN row is refused once every block is checked.
        if count and not (block.min() >= 0.0 and block.max() <= 1.0):
            low, high = block.min(axis=1), block.max(axis=1)
            outside = (low < -STRUCT_TOL) | (high > 1 + STRUCT_TOL)
            if outside.any():
                # the row's first member names it
                member = int(np.argmax(index == start + int(np.argmax(outside))))
                grid = (len(base),) * comb.arity
                tup = tuple(int(i) for i in np.unravel_index(member, grid))
                raise ValidationError(f"combinator {comb.name} left [0, 1] on inputs {tup}")
            finite = finite and not np.isnan(low).any()
            np.clip(block, 0.0, 1.0, out=block)
        maps.append(index)
        parts.append((comb.name, comb.arity, base.descriptors, len(base) ** comb.arity))
        start += count
    if not finite:
        raise ValidationError(_OUT_OF_RANGE)
    descriptors = Descriptors(parts)
    return Family._in_range(
        matrix,
        descriptors,
        [ComplexityLabel(s1, s2)] * len(descriptors),
        _compose_name(base, s1, s2),
        rows=np.concatenate(maps),
    )


def compose_levels(
    requests: Sequence[tuple[Family, int, int, tuple[Combinator, ...]]],
) -> list[Family]:
    """``compose_level(base, s1, s2, entries)`` for every request, in
    order, where ``entries`` is what ``compose_entries(base, s1, s2, ...)``
    returned for it, with one compose per chain: a request whose entries
    are a leading run of a wider request's over the same base object is a
    family over the wider result's leading members and leading rows, a
    read-only view with its own descriptors slice, labels and name."""
    out: list[Family | None] = [None] * len(requests)
    tops: list[tuple[Family, tuple[Combinator, ...], Family]] = []
    for i in sorted(range(len(requests)), key=lambda i: -len(requests[i][3])):
        base, s1, s2, entries = requests[i]
        for top_base, top_entries, top in tops:
            if top_base is base and top_entries[: len(entries)] == entries:
                members = _member_count(len(base), entries)
                out[i] = Family._in_range(
                    top.matrix[: sum(_stored_rows(len(base.matrix), entries))],
                    top.descriptors[:members],
                    [ComplexityLabel(s1, s2)] * members,
                    _compose_name(base, s1, s2),
                    rows=top.rows[:members],
                )
                break
        else:
            out[i] = compose_level(base, s1, s2, entries)
            tops.append((base, entries, out[i]))
    return out


# ---------------------------------------------------------------------------
# Graded ladders, growth maps, error schedules
# ---------------------------------------------------------------------------


class GradedLadder:
    """A finite chain of nested families with nondecreasing labels.

    Nesting is by value: every member value-vector of level i must appear in
    level i+1, with -0.0 equal to 0.0.  A level whose matrix equals the
    leading rows of the next one's (as a level composed with a shorter
    catalog does, see ``compose_levels``) is nested by that one compare;
    any other pair by the exact test on row bytes (``_missing_by_bytes``).
    Levels may repeat, which is how shallow chains are padded to the depth a
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
        for i in range(len(levels) - 1):
            lower, upper = levels[i], levels[i + 1]
            if lower is upper:
                continue
            if not _leads(lower.matrix, upper.matrix) and _missing_by_bytes(
                lower.matrix, upper.matrix
            ):
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

    def padded(self, depth: int) -> "GradedLadder":
        """Extend to the requested depth by repeating the top level."""
        if depth <= self.depth:
            return self
        levels = list(self.levels) + [self.levels[-1]] * (depth - self.depth)
        return GradedLadder(levels, name=self.name)


def _leads(lower: np.ndarray, upper: np.ndarray) -> bool:
    """Whether ``lower`` equals the leading rows of ``upper`` (-0.0 == 0.0)."""
    return len(lower) <= len(upper) and bool((upper[: len(lower)] == lower).all())


def _missing_by_bytes(rows: np.ndarray, upper: np.ndarray) -> bool:
    """Whether some row of ``rows`` is absent from ``upper`` (-0.0 == 0.0).
    Upper rows are indexed by a hash of their bytes with -0.0 made 0.0, one
    row at a time, and each hit is confirmed by an exact compare."""
    buf, index = np.empty(upper.shape[1]), {}
    for j, row in enumerate(upper):
        index.setdefault(hash(np.add(row, 0.0, out=buf).tobytes()), []).append(j)
    for row in rows:
        hits = index.get(hash(np.add(row, 0.0, out=buf).tobytes()), ())
        if not any((upper[j] == row).all() for j in hits):
            return True
    return False


class GrowthMap:
    """A monotone map on ladder levels with an induced action on labels.

    The stored table may point past the top of the ladder; applying the map
    there raises LadderExhaustedError, which is how a run reports that the
    chain ran out before the construction terminated.

    The label action is tabulated once from ``labels``, one per level and
    nondecreasing in both components, as a ladder's are: a label goes to
    the label of the mapped image of the lowest level that dominates it,
    and a label no level dominates goes to its join with the top level's
    label, so formal recurrences stay monotone past the chain's reach.
    Without labels the action is the identity.  ``table`` and
    ``label_table``, the labels' (s1, s2) pairs (empty without labels),
    determine the map.
    """

    def __init__(
        self,
        depth: int,
        table: Sequence[int],
        labels: Sequence[ComplexityLabel] | None = None,
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
        self.name = name
        labels = list(labels or ())
        ordered = all(map(ComplexityLabel.le, labels, labels[1:]))
        if labels and (len(labels) != depth or not ordered):
            raise ValidationError("growth labels must be one per level and nondecreasing")
        pairs = self.label_table = tuple((lbl.s1, lbl.s2) for lbl in labels)
        self._s1, self._s2 = [p[0] for p in pairs], [p[1] for p in pairs]
        self._images = [pairs[min(t, depth - 1)] for t in table] if pairs else []
        self._top = pairs[-1] if pairs else (0, 0)

    def label_map(self, s1: int, s2: int) -> tuple[int, int]:
        """The label action on (s1, s2): with both label components
        nondecreasing, the levels dominating a label are those at or past
        both of its components' first dominating levels."""
        j = max(bisect.bisect_left(self._s1, s1), bisect.bisect_left(self._s2, s2))
        if j < len(self._images):
            return self._images[j]
        return max(self._top[0], s1), max(self._top[1], s2)

    @classmethod
    def identity(cls, ladder: GradedLadder) -> "GrowthMap":
        return cls(ladder.depth, range(ladder.depth), name="identity")

    @classmethod
    def shift(cls, ladder: GradedLadder, by: int) -> "GrowthMap":
        if by < 0:
            raise ValidationError("shift must be nonnegative")
        return cls(
            ladder.depth,
            [i + by for i in range(ladder.depth)],
            [lvl.label for lvl in ladder.levels],
            name=f"shift+{by}",
        )

    @classmethod
    def explicit(cls, ladder: GradedLadder, table: Sequence[int]) -> "GrowthMap":
        return cls(ladder.depth, table, [lvl.label for lvl in ladder.levels], name="explicit")


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
