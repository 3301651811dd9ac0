"""Proxy distributions and indistinguishability of k-fold products.

The pipeline: mix two distributions with a prior into one observation
distribution plus a posterior target, fit a calibrated regular simulator to
that target, and read off proxy distributions from the simulator by Bayes.
The proxies are statistically analyzable stand-ins for the originals: each
is computationally indistinguishable from its original, while the total
variation between k-fold products of the proxies is witnessed, up to
explicit calibration slack, by a product-threshold test built from the
simulator.  Every inequality in that story is measured here exactly and
reported with its slack.

Two hat vectors appear throughout: the closed-form reweightings
(1-h) D_X / (1-prior) and h D_X / prior.  They are raw nonnegative measures
(mass near, not exactly, one) that the true Bayes proxies approximate in
total variation; expectations against them are plain weighted sums, and
``family_distance`` and ``tv_distance`` take them as they are.

A verification makes one k-fold pass, the library's only path to the
product test's statistics: one type-class table over every measure it
reads, one scoring of the test on its types (``ProductTest.outcomes``, fire
and tie together) and one pass over the cached successor maps for all its
hybrids (``_hybrid_gaps``).  Each mode's prior, regularity tolerance and
calibration target are stated once, in ``_proxy_mode``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .boosting import BoostParams, _boost, calibrated_multiaccuracy, calibration_error
from .domain import (
    STRUCT_TOL, BoundedFn, Distribution, Inequality, Reported, _check_accuracy, tv_distance
)
from .errors import InternalContractError, ValidationError
from .families import (
    Family,
    GradedLadder,
    GrowthMap,
    best_response,
    family_distance,
)
from .kfold import (
    TypeClassTable,
    _check_k,
    _check_kfold_reach,
    _mixed_expectations,
    kfold_type_classes,
)


# ---------------------------------------------------------------------------
# Mixtures and proxies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureInstance(Reported):
    """Two source distributions, a prior, their mixture, and the posterior
    target g(x) = prior * D1(x) / D_X(x).

    At points of zero mixture mass g is set to the prior; those points carry
    no weight in any audit, and the convention keeps g * D_X = prior * D1
    holding pointwise everywhere.
    """

    d0: Distribution
    d1: Distribution
    prior: float
    d_x: Distribution
    g: BoundedFn

    def __post_init__(self):
        if not (0.0 < self.prior < 1.0):
            raise ValidationError("prior must lie in (0, 1)")
        mix = (1.0 - self.prior) * self.d0.weights + self.prior * self.d1.weights
        if np.max(np.abs(mix - self.d_x.weights)) > STRUCT_TOL:
            raise ValidationError("d_x is not the prior mixture of d0 and d1")
        dev = np.max(np.abs(self.g.values * self.d_x.weights - self.prior * self.d1.weights))
        if dev > STRUCT_TOL:
            raise ValidationError(
                f"posterior identity g * d_x = prior * d1 violated by {dev!r}"
            )

    @property
    def size(self) -> int:
        return self.d_x.size


def build_mixture(d0: Distribution, d1: Distribution, prior: float) -> MixtureInstance:
    """Mix d0 and d1 with the given prior on d1 and derive the posterior target."""
    if d0.size != d1.size:
        raise ValidationError("d0 and d1 must share a domain")
    if not (0.0 < prior < 1.0):
        raise ValidationError("prior must lie in (0, 1)")
    mix = (1.0 - prior) * d0.weights + prior * d1.weights
    num = prior * d1.weights
    g = np.full(d0.size, prior)
    np.divide(num, mix, out=g, where=mix > 0)
    return MixtureInstance(
        d0=d0, d1=d1, prior=prior, d_x=Distribution(mix), g=BoundedFn(g)
    )


@dataclass(frozen=True)
class ProxyPair:
    """Bayes proxies of the simulator, plus the raw hat reweightings.

    tilde1 is the conditional law of the observation given a simulated label
    of 1 (and tilde0 given 0); p is the simulated label's probability.  The
    hats are the unnormalized closed forms h D_X / prior and
    (1-h) D_X / (1-prior) whose normalizations the proxies are.
    """

    p: float
    tilde0: Distribution
    tilde1: Distribution
    hat0: np.ndarray
    hat1: np.ndarray


def build_proxies(inst: MixtureInstance, h: BoundedFn) -> ProxyPair:
    """Split the mixture by the simulator's label: p = E[h], tilde1 = h d_x / p,
    tilde0 = (1-h) d_x / (1-p)."""
    if h.size != inst.size:
        raise ValidationError("simulator domain does not match the instance")
    hv = h.values
    dx = inst.d_x.weights
    p = float(np.dot(dx, hv))
    if p <= 0.0 or p >= 1.0:
        raise ValidationError(
            f"proxy undefined: E[h] = {p!r}; the simulator is constantly 0 or 1"
        )
    tilde1 = Distribution(hv * dx / p)
    tilde0 = Distribution((1.0 - hv) * dx / (1.0 - p))
    hat1 = hv * dx / inst.prior
    hat0 = (1.0 - hv) * dx / (1.0 - inst.prior)
    marg = np.max(np.abs(p * tilde1.weights + (1 - p) * tilde0.weights - dx))
    if marg > STRUCT_TOL:
        raise InternalContractError(f"proxy pair fails to re-mix to d_x by {marg!r}")
    return ProxyPair(p=p, tilde0=tilde0, tilde1=tilde1, hat0=hat0, hat1=hat1)


# ---------------------------------------------------------------------------
# Product-threshold tests
# ---------------------------------------------------------------------------


class ProductTest:
    """Indicator test on k-tuples, evaluated in log space on count vectors.

    balanced: fires when prod h(z_i) > prod (1 - h(z_i));
    tilted:   fires when prod h(z_i) > eps^k.
    Ties resolve to 0 (strict inequality); h values of exactly 0 or 1 give
    -inf log terms with the usual float comparisons.  Scores are summed over
    the distinct levels of h, so points with equal h are interchangeable and
    exact ties such as prod h = eps^k do not split by point identity.
    """

    def __init__(self, h: BoundedFn, k: int, kind: str, eps: float | None = None):
        k = _check_k(k)
        if kind not in ("balanced", "tilted"):
            raise ValidationError("kind must be 'balanced' or 'tilted'")
        if kind == "tilted":
            if eps is None or not (0.0 < eps < 1.0):
                raise ValidationError("tilted test needs eps in (0, 1)")
        self.h = h
        self.k = k
        self.kind = kind
        self.eps = eps
        self._order = np.argsort(h.values, kind="stable")
        levels, self._starts = np.unique(h.values[self._order], return_index=True)
        with np.errstate(divide="ignore"):
            self._log_h = np.log(levels)
            self._log_not_h = np.log(1.0 - levels)
        self._rhs_const = None if kind == "balanced" else k * math.log(eps)

    def _scores(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        level_counts = np.add.reduceat(counts[:, self._order], self._starts, axis=1)
        lhs = _masked_score(level_counts, self._log_h)
        if self.kind == "balanced":
            rhs = _masked_score(level_counts, self._log_not_h)
        else:
            rhs = np.full(counts.shape[0], self._rhs_const)
        return lhs, rhs

    def outcomes(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The test's value (lhs > rhs) and its tie indicator (lhs == rhs)
        on every row, from one scoring pass."""
        lhs, rhs = self._scores(np.atleast_2d(counts))
        return (lhs > rhs).astype(float), (lhs == rhs).astype(float)

    def on_counts(self, counts: np.ndarray) -> np.ndarray:
        return self.outcomes(counts)[0]

    def describe(self) -> str:
        if self.kind == "balanced":
            return f"product-threshold[balanced, k={self.k}]"
        return f"product-threshold[tilted, k={self.k}, eps={self.eps!r}]"


def _masked_score(counts: np.ndarray, logvec: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        terms = counts * logvec[None, :]
        terms = np.where(counts > 0, terms, 0.0)
    return terms.sum(axis=1)


def _advantage(table: TypeClassTable, values: np.ndarray, i: int, j: int) -> float:
    return abs(table.expectation(i, values) - table.expectation(j, values))


def _hybrid_gaps(values: np.ndarray, pairs, k: int) -> list[float]:
    """Per (dist, hat) pair, the largest gap between adjacent hybrids dist^j x
    hat^(k-j) of the test with per-type ``values``, which calibration bounds."""
    return [float(np.max(np.abs(np.diff(sums)))) for sums in _mixed_expectations(values, pairs, k)]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacterizationReport(Reported):
    """All measured quantities and checked inequalities of a verification run."""

    mode: str
    instance: dict
    params: dict
    audits: dict
    inequalities: tuple[Inequality, ...]
    witnesses: dict
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(iq.passes for iq in self.inequalities)

    def failed_names(self) -> list[str]:
        return [iq.name for iq in self.inequalities if not iq.passes]

    def inequality(self, name: str) -> Inequality:
        for iq in self.inequalities:
            if iq.name == name:
                return iq
        raise KeyError(name)


def _check_verify_gamma(mode: str, epsilon: float, gamma: float) -> None:
    """The calibration a verification's conclusions need: gamma < 1/10 in
    two-proxy mode, gamma < epsilon / 2 in single-proxy mode."""
    bound, text = (0.1, "1/10") if mode == "two-proxy" else (epsilon / 2.0, "epsilon / 2")
    if not (0.0 < gamma < bound):
        raise ValidationError(f"gamma must lie in (0, {text})")


def _require_hypothesis(name: str, measured: float, bound: float) -> None:
    Inequality(name, measured, bound).require(ValidationError, "hypothesis audit failed on")


# ---------------------------------------------------------------------------
# Verification of the two-proxy (balanced) characterization
# ---------------------------------------------------------------------------


def verify_two_proxy(
    inst: MixtureInstance,
    h: BoundedFn,
    family: Family,
    epsilon: float,
    gamma: float,
    k: int,
) -> CharacterizationReport:
    """Check the full balanced-mixture story for a simulator h of the posterior.

    Hypotheses (audited, not assumed): h is regular at epsilon and calibrated
    at gamma for the posterior under the mixture, and gamma < 1/10.
    Checked conclusions: each original is indistinguishable from its proxy
    within 2 eps + 5 gamma; the product test's measured advantage on the
    k-fold originals is at least the k-fold proxy total variation minus
    14 k gamma; plus the intermediate hat-vector facts and the hybrid
    per-step gaps of at most 2 gamma that drive them.
    """
    if abs(inst.prior - 0.5) > STRUCT_TOL:
        raise ValidationError("two-proxy verification needs prior 1/2")
    _check_verify_gamma("two-proxy", epsilon, gamma)
    _check_kfold_reach(inst.size, k)
    br = best_response(family, inst.g, h, inst.d_x)
    _require_hypothesis("regularity (multiaccuracy) of h", br.correlation, epsilon)
    cal = calibration_error(inst.g, h, inst.d_x)
    _require_hypothesis("calibration of h", cal, gamma)

    proxies = build_proxies(inst, h)
    test = ProductTest(h, k, "balanced")

    fd0 = family_distance(family, inst.d0, proxies.tilde0)
    fd1 = family_distance(family, inst.d1, proxies.tilde1)
    hat_fd0 = family_distance(family, inst.d0, proxies.hat0)
    hat_fd1 = family_distance(family, inst.d1, proxies.hat1)
    tv_th0 = tv_distance(proxies.tilde0, proxies.hat0)
    tv_th1 = tv_distance(proxies.tilde1, proxies.hat1)

    # One k-fold pass: one table (its rows in the order the statistics
    # below first read them), one scoring of its types and one successor
    # pass for both hybrids.
    table = kfold_type_classes(
        [proxies.tilde0, proxies.tilde1, inst.d0, inst.d1, proxies.hat0, proxies.hat1], k
    )
    fire, tie = test.outcomes(table.counts)
    tv_proxies = table.tv(0, 1)
    tv_true = table.tv(2, 3)
    advantage = _advantage(table, fire, 2, 3)
    advantage_hat = _advantage(table, fire, 4, 5)
    hybrid0, hybrid1 = _hybrid_gaps(fire, [(inst.d0, proxies.hat0), (inst.d1, proxies.hat1)], k)

    ident_d1 = float(np.max(np.abs(inst.d1.weights - inst.g.values * inst.d_x.weights / inst.prior)))
    ident_d0 = float(
        np.max(np.abs(inst.d0.weights - (1 - inst.g.values) * inst.d_x.weights / (1 - inst.prior)))
    )
    inv_p_dev = abs(1.0 / proxies.p - 2.0)

    inequalities = (
        Inequality("indistinguishability-proxy0", fd0.value, 2 * epsilon + 5 * gamma),
        Inequality("indistinguishability-proxy1", fd1.value, 2 * epsilon + 5 * gamma),
        Inequality("advantage-at-least-proxy-tv", tv_proxies - 14 * k * gamma, advantage),
        Inequality("tv-tilde-hat-0", tv_th0, 5 * gamma),
        Inequality("tv-tilde-hat-1", tv_th1, 5 * gamma),
        Inequality("indistinguishability-hat0", hat_fd0.value, 2 * epsilon),
        Inequality("indistinguishability-hat1", hat_fd1.value, 2 * epsilon),
        Inequality("hybrid-step-0", hybrid0, 2 * gamma),
        Inequality("hybrid-step-1", hybrid1, 2 * gamma),
        Inequality("mixture-identity-d1", ident_d1, STRUCT_TOL),
        Inequality("mixture-identity-d0", ident_d0, STRUCT_TOL),
        Inequality("label-probability-inverse", inv_p_dev, 5 * gamma),
        Inequality("advantage-data-processing", advantage, tv_true),
    )
    return CharacterizationReport(
        mode="two-proxy",
        instance=inst.to_json(),
        params={"epsilon": epsilon, "gamma": gamma, "k": k},
        audits={
            "multiaccuracy_error": br.correlation,
            "calibration_error": cal,
            "p": proxies.p,
            "advantage": advantage,
            "advantage_hat_pair": advantage_hat,
            "tv_kfold_proxies": tv_proxies,
            "tv_kfold_true": tv_true,
            "tie_mass_d0": table.expectation(2, tie),
            "tie_mass_d1": table.expectation(3, tie),
        },
        inequalities=inequalities,
        witnesses={
            "regularity_witness": br.index,
            "proxy0_witness": fd0.index,
            "proxy1_witness": fd1.index,
            "test": test.describe(),
        },
    )


# ---------------------------------------------------------------------------
# Verification of the single-proxy (tilted) characterization
# ---------------------------------------------------------------------------


def verify_single_proxy(
    inst: MixtureInstance,
    h: BoundedFn,
    family: Family,
    epsilon: float,
    gamma: float,
    k: int,
) -> CharacterizationReport:
    """Check the tilted-mixture story: prior epsilon on d1, no proxy for d0.

    Hypotheses: h regular at epsilon^2 and calibrated at gamma for the
    posterior under the tilted mixture, gamma < epsilon / 2.  Conclusions:
    d1 and its proxy are indistinguishable within eps + 2 gamma / eps^2, and
    the tilted product test distinguishes the k-fold originals with
    advantage at least the k-fold (d0, proxy) total variation minus
    (2 gamma / eps^2 + gamma / eps + eps) k.
    """
    if abs(inst.prior - epsilon) > STRUCT_TOL:
        raise ValidationError("single-proxy verification needs prior == epsilon")
    _check_verify_gamma("single-proxy", epsilon, gamma)
    _check_kfold_reach(inst.size, k)
    br = best_response(family, inst.g, h, inst.d_x)
    _require_hypothesis(
        "regularity (multiaccuracy at epsilon^2) of h", br.correlation, epsilon ** 2
    )
    cal = calibration_error(inst.g, h, inst.d_x)
    _require_hypothesis("calibration of h", cal, gamma)

    proxies = build_proxies(inst, h)
    test = ProductTest(h, k, "tilted", eps=epsilon)

    fd1 = family_distance(family, inst.d1, proxies.tilde1)
    tv_th1 = tv_distance(proxies.tilde1, proxies.hat1)
    # One k-fold pass, as in verify_two_proxy.
    table = kfold_type_classes([inst.d0, proxies.tilde1, inst.d1], k)
    fire, tie = test.outcomes(table.counts)
    tv_proxy = table.tv(0, 1)
    tv_true = table.tv(0, 2)
    advantage = _advantage(table, fire, 0, 2)
    (hybrid1,) = _hybrid_gaps(fire, [(inst.d1, proxies.hat1)], k)
    ident_d1 = float(np.max(np.abs(inst.d1.weights - inst.g.values * inst.d_x.weights / inst.prior)))
    slack = (2 * gamma / epsilon ** 2 + gamma / epsilon + epsilon) * k

    inequalities = (
        Inequality(
            "indistinguishability-proxy1", fd1.value, epsilon + 2 * gamma / epsilon ** 2
        ),
        Inequality("advantage-at-least-proxy-tv", tv_proxy - slack, advantage),
        Inequality("tv-tilde-hat-1", tv_th1, 2 * gamma / epsilon ** 2),
        Inequality("label-probability", abs(proxies.p - epsilon), gamma),
        Inequality("hybrid-step-1", hybrid1, gamma / epsilon),
        Inequality("mixture-identity-d1", ident_d1, STRUCT_TOL),
        Inequality("advantage-data-processing", advantage, tv_true),
    )
    return CharacterizationReport(
        mode="single-proxy",
        instance=inst.to_json(),
        params={"epsilon": epsilon, "gamma": gamma, "k": k},
        audits={
            "multiaccuracy_error": br.correlation,
            "calibration_error": cal,
            "p": proxies.p,
            "advantage": advantage,
            "tv_kfold_d0_proxy": tv_proxy,
            "tv_kfold_true": tv_true,
            "tie_mass_d0": table.expectation(0, tie),
            "tie_mass_d1": table.expectation(2, tie),
        },
        inequalities=inequalities,
        witnesses={
            "regularity_witness": br.index,
            "proxy1_witness": fd1.index,
            "test": test.describe(),
            "tilde0": "d0 (single-proxy mode: no proxy constructed for d0)",
        },
    )


# ---------------------------------------------------------------------------
# End-to-end characterizations
# ---------------------------------------------------------------------------


def _proxy_mode(mode: str, epsilon: float) -> tuple[float, float, float]:
    """(prior, regularity tolerance, calibration target) of a proxy mode at a
    boosting epsilon (``BoostParams``'s rule), the target small enough for
    the epsilon terms to dominate every slack."""
    if mode not in ("two-proxy", "single-proxy"):
        raise ValidationError("mode must be 'two-proxy' or 'single-proxy'")
    _check_accuracy(epsilon, "epsilon")
    if mode == "two-proxy":
        return 0.5, epsilon, epsilon ** 2 / 20.0
    return epsilon, epsilon ** 2, epsilon ** 3 / 20.0


def _fit_params(mode: str, epsilon: float, gamma: float | None = None) -> BoostParams:
    """The proxy fit's knobs: regular at the mode's tolerance, calibrated at
    gamma, by default the mode's calibration target."""
    _, tol, target = _proxy_mode(mode, epsilon)
    return BoostParams(epsilon=tol, gamma=target if gamma is None else gamma)


def _fit_and_verify(
    d0: Distribution,
    d1: Distribution,
    levels: Sequence[Family] | GradedLadder,
    growth: GrowthMap | None,
    epsilon: float,
    gamma: float,
    k: int,
    mode: str,
    simulator: BoundedFn | None = None,
) -> tuple[CharacterizationReport, BoundedFn, tuple[int, int]]:
    """Mix d0 and d1 with the mode's prior, fit a simulator h of the
    posterior unless one is given, and verify h in that mode; returns the
    report, h and the final (level, fooled).  The fit, calibrated at gamma
    and regular at the mode's tolerance, is the calibrated boost on
    levels[0], or with a growth map the calibrated expanding run."""
    prior = _proxy_mode(mode, epsilon)[0]
    # an over-reach k is refused before the simulator is fitted
    _check_kfold_reach(d0.size, k)
    inst = build_mixture(d0, d1, prior)
    h, reached = simulator, (0, 0)
    if h is None:
        params = _fit_params(mode, epsilon, gamma)
        if growth is None:
            h, _ = calibrated_multiaccuracy(inst.g, inst.d_x, levels[0], params)
        else:
            h, _, reached = _boost(
                inst.g, inst.d_x, params, levels, growth=growth,
                gamma=gamma, termination="regular-and-calibrated-above-level",
            )
    verify = verify_two_proxy if mode == "two-proxy" else verify_single_proxy
    return verify(inst, h, levels[reached[1]], epsilon, gamma, k), h, reached


def _chain_gaps(
    base: CharacterizationReport,
    family: Family,
    lift_name: str,
    d0: Distribution,
    d1: Distribution,
) -> tuple[tuple[float, str, str], tuple[float, str, str]]:
    """(distance, family name, witness) on the k-fold products of d0 and d1
    for the per-coordinate lift of ``family`` and for the lift followed by
    the product test.

    Under a product measure a member applied to any one coordinate has its
    base gap, so the lift's distance is the base family distance, first
    attained at coordinate 0.  The product test's gap is the measured
    advantage; it comes last, so it is the witness only when strictly larger.
    """
    fd = family_distance(family, d0, d1)
    lift = (fd.value, lift_name, f"{family.descriptors[fd.index]}@coord0")
    advantage = base.audits["advantage"]
    top = (advantage, base.witnesses["test"]) if advantage > fd.value else (lift[0], lift[2])
    return lift, (top[0], f"{lift_name}+product-test", top[1])


def _chain_report(
    base: CharacterizationReport,
    route: str,
    lower: tuple[float, str, str],
    upper: tuple[float, str, str],
    chain_fields: dict,
    **extras,
) -> CharacterizationReport:
    """``base`` extended into ``route``'s report: the chain relating the family
    distances of the k-fold originals to the k-fold proxy total variation at
    base's epsilon and k, plus the route's ``chain_fields`` and ``extras``."""
    epsilon, k = base.params["epsilon"], base.params["k"]
    proxy_tv = base.audits["tv_kfold_proxies" if base.mode == "two-proxy" else "tv_kfold_d0_proxy"]
    chain = (
        Inequality("chain-lower", lower[0] - k * epsilon, proxy_tv),
        Inequality("chain-upper", proxy_tv, upper[0] + k * epsilon),
    )
    return replace(
        base,
        mode=f"{route}/{base.mode}",
        params={**base.params, "tolerance": _proxy_mode(base.mode, epsilon)[1]},
        inequalities=base.inequalities + chain,
        extras={
            **base.extras,
            **extras,
            "chain": {
                "family_distance_lower": lower[0],
                "family_distance_upper": upper[0],
                "proxy_tv": proxy_tv,
                "k_epsilon": k * epsilon,
                "lower_family": lower[1],
                "upper_family": upper[1],
                "lower_witness": lower[2],
                "upper_witness": upper[2],
                **chain_fields,
            },
        },
    )


def characterize(
    d0: Distribution,
    d1: Distribution,
    family: Family,
    epsilon: float,
    k: int,
    mode: str = "two-proxy",
) -> CharacterizationReport:
    """Build the proxies for a pair of distributions and report the chain
    relating family distance of k-fold originals to proxy total variation.

    The simulator is fitted at the mode's tolerance and calibration target
    (``_proxy_mode``).  The chain's lower family is the per-coordinate lift
    of the input family; the upper family adds the constructed product
    test.  The two families deliberately differ: closing that gap is
    exactly what the ladder-based variant below is for.
    """
    gamma = _proxy_mode(mode, epsilon)[2]
    base, _, _ = _fit_and_verify(d0, d1, [family], None, epsilon, gamma, k, mode)
    lift, upper = _chain_gaps(base, family, f"lift({family.name}, k={k})", d0, d1)
    return _chain_report(
        base, "characterize", lift, upper, {"distinct_families": True},
        certified_proxy_indistinguishability=base.inequality("indistinguishability-proxy1").rhs,
    )


def characterize_super(
    d0: Distribution,
    d1: Distribution,
    ladder: GradedLadder,
    growth: GrowthMap,
    epsilon: float,
    k: int,
    mode: str = "two-proxy",
) -> CharacterizationReport:
    """The chain report with the complexity gap closed: the simulator comes
    from the expanding supersimulator run with interleaved calibration, so
    it is regular and calibrated against the ladder level above its own,
    and one single family at that level appears on both sides of the chain.

    The chain family is the per-coordinate lift of the fooled ladder level
    together with the constructed product test, which that level's growth
    image is rich enough to absorb; characterize() on the same instance
    reports two distinct families instead, and the difference between the
    two reports is the content of the gap-closure demonstration.
    """
    gamma = _proxy_mode(mode, epsilon)[2]
    base, _, (level, fooled) = _fit_and_verify(d0, d1, ladder, growth, epsilon, gamma, k, mode)
    _, upper = _chain_gaps(base, ladder[fooled], f"lift({ladder.name}[{fooled}], k={k})", d0, d1)
    fields = {"distinct_families": False, "simulator_level": level, "chain_level": fooled}
    if growth.table[level] == level:
        fields["degenerate_growth"] = (
            "growth map fixes this level; the product test may exceed the fooled "
            "class, reproducing the two-family gap"
        )
    return _chain_report(base, "characterize-super", upper, upper, fields)
