"""Boosting constructions for regular, calibrated, and multicalibrated simulators.

Every constructor is one potential argument, run by one private loop,
``_run``: each update spends a guaranteed share of the squared-error
potential E[(g - h)^2], which starts at most 1/4 and never goes below 0, so
the number of updates is bounded before the run starts.  The loop owns the
optional recalibration, the update cap, the per-update potential-drop check
and the trace; a constructor supplies only a step rule.  The correlation
rule (``_boost``) serves ``multiaccuracy_boost``, ``calibrated_multiaccuracy``,
``supersim.supersimulator_expanding`` and the fits behind
``products.characterize``/``characterize_super``: it shifts the simulator a
step of size epsilon against the worst violation the distinguisher family
can still witness, spending at least (3/4) * epsilon^2, which bounds the
updates by ceil(1/(3 epsilon^2)) + 1.  The level rule (``multicalibrate``)
shifts one level set at a time by a thresholded member, spending epsilon^2
times the level's mass.

Every per-level reduction (level masses, level residual sums, the (member,
level) correlation matrix of ``multicalibration_check`` and
``multicalibrate``) goes through ``np.bincount``, which adds each level
cell's terms one at a time in point order, exactly as ``np.add.at`` does, so
the sums are reproducible bit for bit; the (member, level) matrix is summed
one family row at a time, so an audit's temporaries do not grow with the
family.  ``multicalibrate`` carries its level sums across steps and re-sums
only the two levels a shift changed, each over all of its points in point
order, from the family's point-major copy (``Family.by_point``) so each
point's member values are one contiguous row: blocks of rows are reduced
along axis 0, which adds row by row, except that a one-member family
accumulates, since numpy would sum a single column pairwise.  Its carried
sums equal a from-scratch ``_level_matrix`` bit for bit; its stop rule and
``multicalibration_check`` both compare |sum| / mass > epsilon strictly on
those same sums.  Where a scan picks a (level, member) pair, ties go to the
lowest level, then the lowest member: the first strict maximum in level-major
order.

Constructors never self-certify.  ``_run`` checks each run's potential
bookkeeping, every check an ``Inequality`` raised through ``require``; the
runner (``runner._execute_boost``) measures a finished simulator's guarantees
with this module's audits, and the test suite audits them again through an
independent path.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .domain import (
    DERIVED_TOL, BoundedFn, Distribution, Inequality, Reported, _check_accuracy, potential,
    round_to_grid,
)
from .errors import InternalContractError, ValidationError
from .families import Family, GradedLadder, GrowthMap, apply_growth, best_response


def updates_bound(epsilon: float) -> int:
    """Hard cap on boost updates implied by the potential argument."""
    return math.ceil(1.0 / (3.0 * epsilon * epsilon)) + 1


@dataclass(frozen=True)
class BoostParams:
    """Shared knobs for the boosting constructors.

    round_grid is the arithmetic grid the simulator is rounded to after each
    update: exactly epsilon**10, the coarsest grid that keeps rounding
    losses negligible against the per-update potential drop, and the grid
    ``supersim.polylog_gates`` charges for.  Rounding direction is
    round-half-to-even throughout.  Reaching a user max_iters below
    updates_bound(epsilon) is a ValidationError.
    """

    epsilon: float
    max_iters: int | None = None
    gamma: float | None = None

    def __post_init__(self):
        _check_accuracy(self.epsilon, "epsilon")
        _check_max_iters(self.max_iters)
        if self.max_iters is None:
            object.__setattr__(self, "max_iters", updates_bound(self.epsilon))
        if self.gamma is not None:
            if not (0.0 < self.gamma <= self.epsilon):
                raise ValidationError("gamma must lie in (0, epsilon]")
            _check_accuracy(self.gamma, "gamma")

    @property
    def round_grid(self) -> float:
        return self.epsilon ** 10

    def require_gamma(self) -> float:
        if self.gamma is None:
            raise ValidationError("this construction needs params.gamma")
        return self.gamma


def _check_max_iters(max_iters: int | None) -> None:
    if max_iters is not None and max_iters < 1:
        raise ValidationError("max_iters must be >= 1")


def _check_multicalibrate(epsilon: float, max_iters: int | None = None) -> None:
    """multicalibrate's parameter rule: epsilon in (0, 1) and at least
    2^-100, and a user max_iters of at least 1, as in ``BoostParams``."""
    _check_accuracy(epsilon, "epsilon", upper=1)
    _check_max_iters(max_iters)


def _digest(h: BoundedFn) -> str:
    return hashlib.sha256(h.values).hexdigest()[:16]


@dataclass(frozen=True)
class TraceRecord(Reported):
    """One trace event: a correlation update, a recalibration, or a level shift."""

    step: int
    kind: str  # "update" | "recalibrate" | "level-update"
    phi_before: float
    phi_after: float
    digest: str
    correlation: float | None = None
    sign: int | None = None
    member_index: int | None = None
    descriptor: str | None = None
    detail: dict | None = None  # a supersimulator update's levels, a recalibration's gamma


@dataclass(frozen=True)
class BoostTrace:
    """Full per-iteration record of a boosting run."""

    epsilon: float
    records: tuple[TraceRecord, ...]
    final: BoundedFn
    termination: str

    @property
    def update_count(self) -> int:
        return sum(1 for r in self.records if r.kind in ("update", "level-update"))

    def validate(self, min_update_drop: float) -> None:
        """Check the potential bookkeeping the constructors promise, each claim
        on the trace's worst record: every potential lies in [0, 1], and every
        update drops it by at least ``min_update_drop``."""
        phis = [phi for r in self.records for phi in (r.phi_before, r.phi_after)]
        drops = [r.phi_before - r.phi_after for r in self.records
                 if r.kind in ("update", "level-update")]
        for claim in (
            Inequality("potential-nonnegative", -min(phis, default=0.0), 0.0),
            Inequality("potential-at-most-one", max(phis, default=0.0), 1.0),
            Inequality("guaranteed-drop", min_update_drop, min(drops, default=math.inf)),
        ):
            claim.require(InternalContractError, "the trace breaks")

    def to_jsonl(self) -> str:
        lines = [json.dumps(r.to_json(), sort_keys=True) for r in self.records]
        final = {"final_digest": _digest(self.final), "termination": self.termination,
                 "updates": self.update_count}
        return "\n".join([*lines, json.dumps(final, sort_keys=True)])


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------


def _level_sets(h: BoundedFn, dist: Distribution):
    """(values, inverse, masses): the sorted distinct values of h, each
    point's index into them, and each level's mass in point order.

    What ``np.unique(h.values, return_inverse=True)`` returns, bit for bit
    (the same quicksort argsort, so the same member of a -0.0/0.0 run stands
    for its level), from one argsort, a neighbour mask and a cumsum."""
    perm = h.values.argsort()
    ordered = h.values[perm]
    starts = np.empty(ordered.size, dtype=bool)
    starts[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    values = ordered[starts]
    # with the first start cleared, the running count of level starts (a
    # cumsum) is each sorted point's level
    starts[0] = False
    inverse = np.empty(ordered.size, dtype=np.intp)
    inverse[perm] = np.add.accumulate(starts, dtype=np.intp)
    masses = np.bincount(inverse, weights=dist.weights, minlength=values.size)
    return values, inverse, masses


def _level_matrix(
    matrix: np.ndarray, residual: np.ndarray, inverse: np.ndarray, n_levels: int
) -> np.ndarray:
    """(m, L) matrix whose entry (i, j) is the sum of matrix[i] * residual over
    the points of level j, each cell summed in point order (as np.add.at),
    one row at a time through one reused N-sized buffer."""
    out = np.empty((matrix.shape[0], n_levels))
    buf = np.empty(residual.size)
    for i, row in enumerate(matrix):
        np.multiply(row, residual, out=buf)
        out[i] = np.bincount(inverse, weights=buf, minlength=n_levels)
    return out


# Points gathered per block by _point_sums: bounds its temporaries at
# 128 * m entries, whatever the number of points.  On a 2-core Xeon at
# m = 364, N = 8192 it ran faster than blocks of 64, 256 or 512.
_POINT_BLOCK = 128


def _point_sums(by_point: np.ndarray, residual: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(m,) sums of by_point[x] * residual[x] over the ascending ``points``,
    each member's terms added one at a time in point order from 0.0, as
    np.bincount adds them, so a level's sums equal its ``_level_matrix``
    column bit for bit.

    ``by_point`` is the point-major (N, m) family (``Family.by_point``), so
    each point is one contiguous row.  Each block's rows are gathered and
    scaled, the running sums are added into the first row, and the block is
    reduced along axis 0, which numpy adds row by row.  A single column
    would reduce as one pairwise 1-D sum, so m = 1 accumulates instead."""
    sums = np.zeros(by_point.shape[1])
    for start in range(0, points.size, _POINT_BLOCK):
        block = points[start : start + _POINT_BLOCK]
        terms = np.take(by_point, block, axis=0)
        terms *= residual[block, None]
        terms[0] += sums
        if terms.shape[1] == 1:
            sums = np.add.accumulate(terms, axis=0)[-1]
        else:
            sums = np.add.reduce(terms, axis=0)
    return sums


def calibration_error(g: BoundedFn, h: BoundedFn, dist: Distribution) -> float:
    """Exact sup over reweightings w: [0,1] -> [0,1] of |E[w(h) (g - h)]|.

    Because h takes finitely many values the supremum is attained at a 0/1
    reweighting, so it equals max(sum of positive level-set residual masses,
    sum of negative ones).
    """
    values, inverse, _ = _level_sets(h, dist)
    residual = dist.weights * (g.values - h.values)
    level_mass = np.bincount(inverse, weights=residual, minlength=values.size)
    pos = float(level_mass[level_mass > 0].sum())
    neg = float(-level_mass[level_mass < 0].sum())
    return max(pos, neg)


@dataclass(frozen=True)
class LevelAudit(Reported):
    value: float
    mass: float
    max_error: float
    witness_index: int


@dataclass(frozen=True)
class MulticalibrationAudit(Reported):
    """The per-level audit; it passes when its ``claim`` does."""

    epsilon: float
    bad_mass: float
    levels: tuple[LevelAudit, ...]

    @property
    def claim(self) -> Inequality:
        return Inequality("multicalibration-bad-mass", self.bad_mass, self.epsilon)

    @property
    def passes(self) -> bool:
        return self.claim.passes

    def to_json(self) -> dict:
        return {**super().to_json(), "passes": self.passes}


def multicalibration_check(
    g: BoundedFn, h: BoundedFn, dist: Distribution, family: Family, epsilon: float
) -> MulticalibrationAudit:
    """Per-level regularity audit: the mass of level sets of h on which some
    family member keeps conditional correlation above epsilon must not
    exceed epsilon (the audit's ``claim``).

    Each level's member correlations are summed in point order (see
    ``_level_matrix``); a level's witness is its lowest-index member of
    largest |correlation|, and ``bad_mass`` adds the failing levels' masses
    in ascending level order.  Levels of zero mass are not audited."""
    if epsilon < 0:
        raise ValidationError("epsilon must be nonnegative")
    values, inverse, masses = _level_sets(h, dist)
    residual = dist.weights * (g.values - h.values)
    live = masses > 0.0
    live_masses = masses[live]
    errs = np.abs(_level_matrix(family.matrix, residual, inverse, values.size)[:, live])
    errs /= live_masses
    witnesses = family.firsts[np.argmax(errs, axis=0)]
    worst = errs.max(axis=0)
    bad = live_masses[worst > epsilon]
    # cumsum adds in level order, as the per-level audit always has
    bad_mass = float(np.cumsum(bad)[-1]) if bad.size else 0.0
    levels = tuple(
        LevelAudit(value=v, mass=p, max_error=e, witness_index=w)
        for v, p, e, w in zip(
            values[live].tolist(), live_masses.tolist(), worst.tolist(), witnesses.tolist()
        )
    )
    return MulticalibrationAudit(epsilon=epsilon, bad_mass=bad_mass, levels=levels)


@dataclass(frozen=True)
class AuditReport(Reported):
    """From-scratch measurements of every guarantee a constructor can claim."""

    multiaccuracy_error: float
    multiaccuracy_witness: int
    calibration_error: float
    multicalibration: MulticalibrationAudit


def audit(
    g: BoundedFn,
    h: BoundedFn,
    dist: Distribution,
    family: Family,
    epsilon: float,
) -> AuditReport:
    br = best_response(family, g, h, dist)
    cal = calibration_error(g, h, dist)
    mc = multicalibration_check(g, h, dist, family, epsilon)
    return AuditReport(
        multiaccuracy_error=br.correlation,
        multiaccuracy_witness=br.index,
        calibration_error=cal,
        multicalibration=mc,
    )


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def _run(
    g: BoundedFn,
    dist: Distribution,
    h: BoundedFn,
    propose: Callable,
    *,
    epsilon: float,
    bound: int,
    max_iters: int | None,
    min_drop: float,
    termination: str,
    gamma: float | None = None,
) -> BoostTrace:
    """The update loop behind every constructor: the potential argument,
    written once.

    Starting from h, each round optionally recalibrates at gamma (charged at
    most gamma^2/4 of potential), then asks the step rule ``propose(h, phi)``
    for the next simulator.  None stops the run; otherwise the rule returns
    (h', drop, fields): the potential its step is guaranteed to spend and
    the step's trace-record fields.  The loop refuses an update past
    max_iters (default ``bound``, the rule's a-priori update count): below
    ``bound`` that is the user's cap, a ValidationError, and at ``bound`` a
    library bug.  It asserts phi - phi' >= drop for every update, records
    it, and validates the finished trace against ``min_drop``, the least
    drop any step of the rule guarantees.
    """
    max_iters = bound if max_iters is None else max_iters
    phi = potential(g, h, dist)
    records: list[TraceRecord] = []
    updates = 0
    while True:
        if gamma is not None:
            h_cal = recalibrate(g, h, dist, gamma)
            phi_cal = potential(g, h_cal, dist)
            Inequality("recalibrated-potential", phi_cal, phi + gamma * gamma / 4.0).require(
                InternalContractError, f"step {len(records)} breaks"
            )
            records.append(TraceRecord(
                step=len(records), kind="recalibrate", phi_before=phi, phi_after=phi_cal,
                digest=_digest(h_cal), detail={"gamma": gamma},
            ))
            h, phi = h_cal, phi_cal
        step = propose(h, phi)
        if step is None:
            break
        if updates >= max_iters:
            if max_iters < bound:
                raise ValidationError(
                    f"params.max_iters: the run reached the user cap of max_iters = {max_iters} "
                    "before converging"
                )
            raise InternalContractError(
                f"the run exceeded its bound of {max_iters} updates; "
                "the potential argument rules this out for a valid family"
            )
        h_new, drop, fields = step
        phi_new = potential(g, h_new, dist)
        Inequality("potential-drop", drop, phi - phi_new).require(
            InternalContractError, f"update at step {len(records)} breaks"
        )
        records.append(TraceRecord(
            step=len(records), phi_before=phi, phi_after=phi_new, digest=_digest(h_new), **fields
        ))
        h, phi = h_new, phi_new
        updates += 1
    trace = BoostTrace(epsilon=epsilon, records=tuple(records), final=h, termination=termination)
    trace.validate(min_drop)
    return trace


def _boost(
    g: BoundedFn,
    dist: Distribution,
    params: BoostParams,
    families: Sequence[Family] | GradedLadder,
    growth: GrowthMap | None = None,
    gamma: float | None = None,
    termination: str = "regular",
) -> tuple[BoundedFn, BoostTrace, tuple[int, int]]:
    """``_run`` under the correlation rule, from the constant 1/2.

    The rule reads the level it must fool from the growth map
    (``apply_growth(growth, level, phi)``; level 0 without one) and stops
    once no signed member of ``families[fooled]`` correlates with the
    residual above epsilon.  Otherwise it steps by epsilon toward the best
    response, clips to [0, 1], rounds to the grid and promotes the
    simulator to the fooled level; the step is guaranteed to spend
    2 eps corr - eps^2 - 2 grid of potential, at least (3/4) eps^2.
    Returns the simulator, its validated trace and the final (level, fooled).
    """
    eps = params.epsilon
    grid = params.round_grid
    level = fooled = 0

    def correlation_step(h, phi):
        nonlocal level, fooled
        if growth is not None:
            fooled = apply_growth(growth, level, phi)
        family = families[fooled]
        br = best_response(family, g, h, dist)
        if br.correlation <= eps + DERIVED_TOL:
            return None
        # the shift is built and clipped in one fresh buffer
        shifted = np.multiply(family.matrix[family.rows[br.index]], eps * br.sign)
        np.add(h.values, shifted, out=shifted)
        h_new = BoundedFn(round_to_grid(shifted.clip(0.0, 1.0, out=shifted), grid))
        detail = None if growth is None else {"level": level, "fooled_level": fooled}
        level = fooled
        return h_new, 2 * eps * br.correlation - eps * eps - 2 * grid, dict(
            kind="update", correlation=br.correlation, sign=br.sign, member_index=br.index,
            descriptor=family.descriptors[br.index], detail=detail,
        )

    trace = _run(
        g, dist, BoundedFn.constant(g.size, 0.5), correlation_step, epsilon=eps,
        bound=updates_bound(eps), max_iters=params.max_iters, min_drop=0.75 * eps * eps,
        termination=termination, gamma=gamma,
    )
    return trace.final, trace, (level, fooled)


def multiaccuracy_boost(
    g: BoundedFn, dist: Distribution, family: Family, params: BoostParams
) -> tuple[BoundedFn, BoostTrace]:
    """Boost a regular simulator: start at the constant 1/2 and, while some
    signed member correlates with the residual above epsilon, step the
    simulator by epsilon toward it, clip to [0, 1], and round to the
    arithmetic grid.

    Guarantees asserted on every run: at most ceil(1/(3 eps^2)) + 1 updates,
    each dropping the potential by at least 2 eps corr - eps^2 - 2 grid,
    which is at least (3/4) eps^2.
    """
    h, trace, _ = _boost(g, dist, params, [family])
    return h, trace


def recalibrate(
    g: BoundedFn, h: BoundedFn, dist: Distribution, gamma: float
) -> BoundedFn:
    """Replace h on each of its level sets by the conditional mean of g there,
    rounded to the width-gamma value grid.

    Because h is constant on each exact-value level set, the first step is a
    genuine L2 projection and never raises the potential; the rounding moves
    each level by at most gamma/2, so the potential rises by at most
    gamma^2/4 over the projection and the result's calibration error is at
    most gamma/2.  Rounding to the grid also merges levels that fall in the
    same width-gamma cell, capping the number of distinct values at the grid
    size.  Levels carrying no probability mass are left untouched; they
    cannot affect any audit.
    """
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    values, inverse, masses = _level_sets(h, dist)
    live = masses > 0.0
    sums = np.bincount(inverse, weights=dist.weights * g.values, minlength=values.size)
    # values is _level_sets' own fresh array, so its levels are set in place
    values[live] = round_to_grid(sums[live] / masses[live], gamma)
    return BoundedFn(values[inverse])


def calibrated_multiaccuracy(
    g: BoundedFn, dist: Distribution, family: Family, params: BoostParams
) -> tuple[BoundedFn, BoostTrace]:
    """Alternate correlation updates with recalibration until the simulator is
    both regular at epsilon and calibrated at gamma.

    Recalibration is a conditional-expectation projection, so it never raises
    the potential beyond the gamma^2/4 rounding slack and the update budget
    of the plain boost survives unchanged.
    """
    h, trace, _ = _boost(
        g, dist, params, [family], gamma=params.require_gamma(),
        termination="regular-and-calibrated",
    )
    return h, trace


def multicalibrate(
    g: BoundedFn,
    dist: Distribution,
    family: Family,
    epsilon: float,
    max_iters: int | None = None,
) -> tuple[BoundedFn, BoostTrace]:
    """Drive the simulator until, outside a set of mass epsilon, no level set
    of its values leaves a family member with conditional correlation above
    epsilon: ``_run`` under the level rule.

    The simulator starts at 1/2 on the epsilon grid and stays on it.  Each
    step picks the level/member pair with the largest mass-weighted
    violation among levels whose mass clears the floor
    epsilon / n_grid (n_grid the number of grid values); levels below the
    floor can total at most epsilon mass, which is exactly the exempt mass
    the guarantee allows.  The shift applied to the level is the best
    thresholding of the chosen member: shifting by the raw member values and
    re-rounding to the grid could round away to nothing, while a maximizing
    threshold provably drops the potential by at least epsilon^2 times the
    level mass, and so by epsilon^2 times the floor, which bounds the run
    at ceil(4 n_grid / epsilon^3) updates; a max_iters below that bound is
    a user cap, and reaching it is a ValidationError.

    The level sets and their (member, level) sums are built once and carried
    from step to step; a shift re-sums only the level it left and the level
    it landed on, over their points in point order, through ``_point_sums``
    on ``family.by_point`` (each point one contiguous row; m = 1 takes a
    sequential path), so every carried sum equals the from-scratch
    ``_level_matrix`` bit for bit.  The run stops when no level of
    mass >= floor has some |sum| / mass strictly above epsilon, on those
    point-order sums, with no tolerance: a level within rounding of epsilon
    is shifted or not as its rounded sum falls.  The trace's ``level_mass``
    and ``correlation`` (|sum| / level_mass), and the step's guaranteed
    drop, use the carried mass the scan compared.
    """
    _check_multicalibrate(epsilon, max_iters)
    n_grid = math.ceil(1.0 / epsilon) + 1
    floor = epsilon / n_grid
    h = BoundedFn(round_to_grid(np.full(g.size, 0.5), epsilon))
    # the carried level state: sorted level values (an emptied level stays
    # as a zero-mass column), each point's level, level masses, level sums
    values, inverse, masses = _level_sets(h, dist)
    by_point = family.by_point
    # h starts constant, so every point lies on the one level
    sums = _point_sums(by_point, dist.weights * (g.values - h.values), np.arange(g.size))[:, None]

    def level_step(h, _phi):
        nonlocal values, masses, sums
        choice = _worst_weighted_violation(masses, sums, epsilon, floor)
        if choice is None:
            return None
        j, row, sign, weighted = choice
        member = int(family.firsts[row])
        level_value, mass = float(values[j]), float(masses[j])
        threshold, target = _best_threshold_shift(
            g, dist, inverse == j, family.matrix[row], sign, epsilon, level_value
        )
        new_value = np.clip(level_value + epsilon * sign, 0.0, 1.0)
        new_values = h.values.copy()
        new_values[target] = new_value
        h_new = BoundedFn(new_values)
        k = int(np.searchsorted(values, new_value))
        if k == values.size or values[k] != new_value:
            values = np.insert(values, k, new_value)
            masses = np.insert(masses, k, 0.0)
            sums = np.insert(sums, k, 0.0, axis=1)
            inverse[inverse >= k] += 1
            j += j >= k
        inverse[target] = k
        residual = dist.weights * (g.values - h_new.values)
        pts = np.flatnonzero((inverse == j) | (inverse == k))
        cols = [j, k]
        masses[cols] = np.bincount(
            inverse[pts], weights=dist.weights[pts], minlength=values.size
        )[cols]
        for col in cols:
            sums[:, col] = _point_sums(by_point, residual, pts[inverse[pts] == col])
        return h_new, epsilon * epsilon * mass, dict(
            kind="level-update", correlation=weighted / mass, sign=sign, member_index=member,
            descriptor=family.descriptors[member],
            detail={"level": level_value, "level_mass": mass, "threshold": threshold},
        )

    trace = _run(
        g, dist, h, level_step, epsilon=epsilon, bound=math.ceil(4.0 * n_grid / epsilon ** 3),
        max_iters=max_iters, min_drop=epsilon * epsilon * floor,
        termination="violating-mass-below-floor",
    )
    return trace.final, trace


def _worst_weighted_violation(masses, sums, epsilon, floor):
    """Pick the (level, row, sign) with the largest |E[1_level f (g-h)]|
    among levels with mass >= floor and conditional correlation > epsilon,
    ``sums`` holding one row per distinct family row; ties go to the lowest
    level, then the lowest row, which is the row of the lowest member.
    Returns (level index, row index, sign, |weighted sum|), or None if no
    level qualifies."""
    cols = np.flatnonzero((masses >= floor) & (masses > 0.0))
    weighted = sums[:, cols]
    size = np.abs(weighted)
    score = np.where(size / masses[cols] > epsilon, size, -1.0)
    if score.size == 0 or score.max() < 0.0:
        return None
    # argmax over the level-major flattening returns the first maximum
    col, row = divmod(int(np.argmax(score.T)), sums.shape[0])
    w = float(weighted[row, col])
    return int(cols[col]), row, +1 if w > 0 else -1, abs(w)


def _best_threshold_shift(g, dist, sel, f_vals, sign, epsilon, level_value):
    """Choose the threshold t maximizing the guaranteed potential drop of
    shifting {x in level : f(x) >= t} by sign * epsilon.

    Since f = integral over t of 1[f >= t], some threshold keeps at least the
    full weighted correlation, so the maximizing drop is at least
    epsilon^2 * level mass whenever the conditional correlation exceeds
    epsilon.  Candidates are the level's distinct positive member values;
    among equal drops the largest threshold wins.
    """
    idx = np.flatnonzero(sel)
    f_sel = f_vals[idx]
    pos = idx[f_sel > 0.0]
    if pos.size == 0:
        raise InternalContractError("qualifying violation had no positive member values")
    # descending member value; each group of equal values ends one candidate
    pos = pos[np.argsort(-f_vals[pos], kind="stable")]
    f_desc = f_vals[pos]
    ends = np.flatnonzero(np.append(f_desc[1:] != f_desc[:-1], True))
    w_desc = dist.weights[pos]
    gain = 2.0 * epsilon * sign * np.cumsum(w_desc * (g.values[pos] - level_value))[ends]
    cost = epsilon * epsilon * np.cumsum(w_desc)[ends]
    best_t = float(f_desc[ends[int(np.argmax(gain - cost))]])
    target = np.zeros(g.size, dtype=bool)
    target[idx[f_sel >= best_t]] = True
    return best_t, target
