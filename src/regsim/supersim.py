"""Supersimulators: simulators audited against families above their own level.

The expanding construction reruns the boosting loop, but draws each best
response from the ladder level the growth map assigns to the simulator's
current level, so the finished simulator is regular against a family
strictly richer than the one it is built from.  The shrinking construction
instead iterates full calibrated-regular builds with a per-level error
schedule and stops at the first round whose potential drop is small: the
two adjacent simulators are then close in L2 while the later one is regular
at the scheduled tolerance against the grown family.

Alongside the measured ladder levels, runs report the formal complexity
recurrence computed from the growth map's label action, so a report always
shows the a-priori bound next to what the run actually used.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .boosting import (
    BoostParams,
    BoostTrace,
    _boost,
    calibrated_multiaccuracy,
    calibration_error,
    updates_bound,
)
from .domain import (
    UNREPORTED, BoundedFn, Distribution, Inequality, Reported, _cached, _check_accuracy,
    potential,
)
from .errors import InternalContractError, ValidationError
from .families import (
    ComplexityLabel,
    ErrorSchedule,
    GradedLadder,
    GrowthMap,
    apply_growth,
    best_response,
)

LABEL_SATURATION = 10 ** 15
# Most rounds a recurrence table may span: it holds one label per round of
# the construction's bound, so 2^16 rounds (updates_bound(epsilon) for
# epsilon >= 0.0023, 1 / alpha for alpha >= 1.6e-5) keep it to a few MiB.
MAX_RECURRENCE_ROUNDS = 1 << 16
# Bytes one label of a kept recurrence bound is charged in the build cache:
# its tuple slot, the object with its dict, and two ints, 168 bytes as
# tracemalloc measured it on CPython 3.11.
_LABEL_BYTES = 168


@dataclass(frozen=True)
class RecurrenceBound(Reported):
    """Formal complexity-label sequence under the implementation's constants."""

    labels: tuple[ComplexityLabel, ...]
    saturated: bool


def polylog_gates(epsilon: float) -> int:
    """Gate cost charged per update for grid arithmetic: b^2 for the
    b = min(52, ceil(log2(1/grid))) bits of the boosting grid epsilon^10
    (``BoostParams.round_grid``); a grid below the 2^-52 spacing of doubles
    near 1 holds no more bits."""
    grid = epsilon ** 10
    bits = 52 if grid < 2.0 ** -52 else math.ceil(math.log2(1.0 / grid))
    return bits ** 2


def _recal_gates(epsilon: float) -> int:
    return math.ceil(1.0 / epsilon ** 3) * math.ceil(math.log2(1.0 / epsilon)) ** 2


def _check_rounds(rounds: int) -> int:
    """``rounds``, refused past MAX_RECURRENCE_ROUNDS."""
    if rounds > MAX_RECURRENCE_ROUNDS:
        raise ValidationError(
            f"the recurrence bound spans {rounds} rounds, above the cap of "
            f"{MAX_RECURRENCE_ROUNDS}; use a larger epsilon or alpha"
        )
    return rounds


def _expanding_rounds(epsilon: float) -> int:
    """The expanding run's update bound floor(1 / (3 epsilon^2)) for a
    boosting epsilon (``BoostParams``), refused past the cap."""
    BoostParams(epsilon=epsilon)
    return _check_rounds(math.floor(1.0 / (3.0 * epsilon * epsilon)))


def _shrinking_rounds(alpha: float) -> int:
    """The shrinking run's round bound floor(1 / alpha) for alpha in
    (0, 0.5) and at least 2^-100, refused past the cap."""
    _check_accuracy(alpha, "alpha")
    return _check_rounds(math.floor(1.0 / alpha))


def recurrence_bound(
    growth: GrowthMap,
    rounds: int,
    mode: str = "expanding",
    epsilon: float | None = None,
    schedule: ErrorSchedule | None = None,
) -> RecurrenceBound:
    """The formal level-label sequence S_0 = (1, 1), advanced ``rounds`` times.

    Expanding mode: S_{i+1} = S_i + G(S_i) + (0, polylog gates at epsilon).
    Shrinking mode: S_{i+1} = (update budget at eps_i) * G(S_i)
    + (0, recalibration gates at eps_i), with eps_i the schedule value at
    round i.  Components clamp at 10^15 and set the saturated flag.

    The sequence depends only on the growth map's table and label table,
    ``rounds``, ``mode`` and epsilon or the schedule's values, so it is
    computed once per distinct input and kept in the library's one build
    cache (``domain._cached``) under a digest of that input, so the key
    holds none of the growth map's tables, charged _LABEL_BYTES per label.
    """
    if rounds < 0:
        raise ValidationError("rounds must be >= 0")
    _check_rounds(rounds)
    if mode not in ("expanding", "shrinking"):
        raise ValidationError("mode must be 'expanding' or 'shrinking'")
    if mode == "expanding" and epsilon is None:
        raise ValidationError("expanding mode needs epsilon")
    if mode == "shrinking" and schedule is None:
        raise ValidationError("shrinking mode needs a schedule")

    def build() -> RecurrenceBound:
        # the recurrence runs on plain ints; labels are built once, at the end
        gates = polylog_gates(epsilon) if mode == "expanding" else 0
        s1 = s2 = 1
        pairs = [(s1, s2)]
        saturated = False
        for i in range(rounds):
            g1, g2 = growth.label_map(s1, s2)
            if mode == "expanding":
                s1, s2 = s1 + g1, s2 + g2 + gates
            else:
                eps_i = schedule.eps_at(i)
                updates = updates_bound(eps_i)
                s1, s2 = g1 * updates, g2 * updates + _recal_gates(eps_i)
            if s1 > LABEL_SATURATION or s2 > LABEL_SATURATION:
                saturated = True
                s1, s2 = min(s1, LABEL_SATURATION), min(s2, LABEL_SATURATION)
            pairs.append((s1, s2))
        return RecurrenceBound(
            labels=tuple(ComplexityLabel(a, b) for a, b in pairs), saturated=saturated
        )

    rate = epsilon if mode == "expanding" else schedule.values
    source = repr((growth.table, growth.label_table, rounds, mode, rate)).encode()
    return _cached(
        ("recurrence_bound", hashlib.blake2b(source, digest_size=32).digest()),
        build,
        lambda bound: _LABEL_BYTES * len(bound.labels),
    )


@dataclass(frozen=True)
class SupersimResult(Reported):
    """Output of the expanding construction.

    ``level`` is the ladder index the simulator lives at; ``fooled_level``
    is the strictly-dominating index it is audited regular against.
    ``inequalities`` is the measured contract.  The simulator, its trace and
    the contract are unreported fields: a report states the simulator and
    the contract on their own.
    """

    level: int
    label: ComplexityLabel
    fooled_level: int
    fooled_label: ComplexityLabel
    h: BoundedFn = field(metadata=UNREPORTED)
    epsilon: float
    updates: int
    bound_index: int
    trace: BoostTrace = field(metadata=UNREPORTED)
    recurrence: RecurrenceBound
    inequalities: tuple[Inequality, ...] = field(default=(), metadata=UNREPORTED)


def supersimulator_expanding(
    g: BoundedFn,
    dist: Distribution,
    ladder: GradedLadder,
    growth: GrowthMap,
    epsilon: float,
) -> SupersimResult:
    """Boost against a moving target: each round's best response is drawn from
    the ladder level the growth map assigns to the simulator's current
    level, and an update promotes the simulator to that level.

    Terminates at the first level whose grown family has no correlation
    above epsilon; the potential argument caps updates exactly as in the
    plain boost.  Exhausting the ladder first raises LadderExhaustedError
    carrying the level reached and the current potential.
    """
    params = BoostParams(epsilon=epsilon)
    if growth.depth != ladder.depth:
        raise ValidationError("growth map and ladder depth disagree")
    bound_index = _expanding_rounds(epsilon)
    recurrence = recurrence_bound(growth, bound_index, mode="expanding", epsilon=epsilon)
    h, trace, (level, fooled) = _boost(
        g, dist, params, ladder, growth=growth, termination="regular-above-level",
    )
    result = SupersimResult(
        level=level,
        label=ladder[level].label,
        fooled_level=fooled,
        fooled_label=ladder[fooled].label,
        h=h,
        epsilon=epsilon,
        updates=trace.update_count,
        bound_index=bound_index,
        trace=trace,
        recurrence=recurrence,
    )
    return replace(result, inequalities=_expanding_contract(result, g, dist, ladder))


def _expanding_contract(
    result: SupersimResult, g: BoundedFn, dist: Distribution, ladder: GradedLadder
) -> tuple[Inequality, ...]:
    """The claims an expanding run reports, each measured once; a failed one
    is a library bug (InternalContractError)."""
    ma = best_response(ladder[result.fooled_level], g, result.h, dist).correlation
    formal = result.recurrence.labels[min(result.bound_index, len(result.recurrence.labels) - 1)]
    contract = (
        Inequality("regular-against-grown-family", ma, result.epsilon),
        Inequality("updates-within-bound", result.updates, result.bound_index),
        Inequality("label-s1-within-bound", result.label.s1, formal.s1),
        Inequality("label-s2-within-bound", result.label.s2, formal.s2),
    )
    for iq in contract:
        iq.require(InternalContractError, "expanding run breaks")
    return contract


@dataclass(frozen=True)
class PairResult(Reported):
    """Output of the shrinking construction: two adjacent simulators.

    ``h_prime`` is regular at eps_at_s and calibrated at eps_at_s against the
    ladder level ``level_s_prime`` = G(level_s); ``similarity`` is the exact
    L2 gap E[(h - h')^2], bounded by phi_gap + 4 * eps_at_s with the
    constant 4 recorded in ``similarity_constant``.  ``inequalities`` are the
    claims a report states.  The two simulators and the claims are
    unreported fields: a report states each on its own.
    """

    h: BoundedFn = field(metadata=UNREPORTED)
    level_s: int
    h_prime: BoundedFn = field(metadata=UNREPORTED)
    level_s_prime: int
    similarity: float
    eps_at_s: float
    alpha: float
    phi_gap: float
    cross_term: float
    round_index: int
    round_bound: int
    similarity_constant: int
    recurrence: RecurrenceBound
    inequalities: tuple[Inequality, ...] = field(metadata=UNREPORTED)


def supersimulator_shrinking(
    g: BoundedFn,
    dist: Distribution,
    ladder: GradedLadder,
    growth: GrowthMap,
    eps_schedule: ErrorSchedule,
    alpha: float,
) -> PairResult:
    """Iterate calibrated-regular builds with the scheduled tolerance; stop at
    the first round whose potential drop is at most alpha and return that
    round's pair of simulators.

    Each round's fooled family is the grown ladder level with the previous
    simulator adjoined as an explicit member, which is what makes the
    cross-term bound |E[h (g - h')]| <= eps auditable rather than assumed.
    """
    round_bound = _shrinking_rounds(alpha)
    if growth.depth != ladder.depth:
        raise ValidationError("growth map and ladder depth disagree")
    recurrence = recurrence_bound(growth, round_bound, mode="shrinking", schedule=eps_schedule)
    h = BoundedFn.constant(g.size, 0.5)
    level = 0
    phi = potential(g, h, dist)
    for i in range(round_bound + 1):
        eps_i = eps_schedule.eps_at(level)
        fooled = apply_growth(growth, level, phi)
        family = ladder[fooled].extended(
            [h.values], ["previous-predictor"], [ladder[level].label],
            name=f"{ladder[fooled].name}+prev",
        )
        h_next, _ = calibrated_multiaccuracy(
            g, dist, family, BoostParams(epsilon=eps_i, gamma=eps_i)
        )
        phi_next = potential(g, h_next, dist)
        gap = phi - phi_next
        if gap <= alpha:
            return _finish_pair(
                g, dist, ladder, eps_schedule, alpha, h, level, h_next,
                fooled, gap, i, round_bound, recurrence,
            )
        h, phi, level = h_next, phi_next, fooled
    raise InternalContractError(
        f"no round with potential drop <= {alpha} within {round_bound + 1} rounds; "
        "impossible while the potential stays in [0, 1]"
    )


def _finish_pair(
    g, dist, ladder, eps_schedule, alpha, h, level, h_prime, fooled,
    gap, round_index, round_bound, recurrence,
):
    """The shrinking pair and its contract, each claim measured once; a failed
    one is a library bug (InternalContractError).  Besides the reported
    claims, E[(h - h')^2] = phi_gap + 2 cross exactly (the sign of the cross
    term matters), |cross| <= 2 eps, and h' is regular and calibrated at eps
    against the grown level.  The Markov corollary: splitting the domain at
    |h - h'| <= beta^(1/3), beta the similarity, bounds the regularity error
    of h against the grown level by eps + 2 beta^(1/3)."""
    eps_i = eps_schedule.eps_at(level)
    diff = h.values - h_prime.values
    similarity = float(np.dot(dist.weights, diff * diff))
    cross = float(np.dot(dist.weights, diff * (g.values - h_prime.values)))
    grown = ladder[fooled]
    reported = (
        Inequality("similarity", similarity, gap + 4 * eps_i),
        Inequality("markov-regularity-of-h", best_response(grown, g, h, dist).correlation,
                   eps_i + 2.0 * max(similarity, 0.0) ** (1.0 / 3.0)),
        Inequality("round-index", round_index, round_bound + 1),
    )
    for iq in (
        Inequality("l2-decomposition", abs(similarity - (gap + 2.0 * cross)), 0.0),
        Inequality("cross-term", abs(cross), 2.0 * eps_i),
        Inequality("h-prime-regular", best_response(grown, g, h_prime, dist).correlation, eps_i),
        Inequality("h-prime-calibrated", calibration_error(g, h_prime, dist), eps_i),
        *reported,
    ):
        iq.require(InternalContractError, "shrinking run breaks")
    return PairResult(
        h=h, level_s=level, h_prime=h_prime, level_s_prime=fooled, similarity=similarity,
        eps_at_s=eps_i, alpha=alpha, phi_gap=gap, cross_term=cross, round_index=round_index,
        round_bound=round_bound, similarity_constant=4, recurrence=recurrence,
        inequalities=reported,
    )
