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
total variation; expectations against them are plain weighted sums.

A verification makes one k-fold pass: one type-class table over every
measure it reads, one scoring of the product test on that table's types
(its fire and tie vectors together) and one successor build for all its
hybrids.  Each statistic is read off these with the same expression as the
standalone function (``kfold_tv``, ``test_advantage``, ``tie_mass``,
``hybrid_bound_check``), so the reported floats equal theirs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from .boosting import (
    BoostParams,
    _boost,
    calibrated_multiaccuracy,
    calibration_error,
    multiaccuracy_error,
)
from .domain import DERIVED_TOL, STRUCT_TOL, BoundedFn, Distribution, l1_half
from .errors import InternalContractError, ValidationError
from .families import (
    Family,
    GradedLadder,
    GrowthMap,
    apply_growth,
    family_distance,
    raw_family_distance,
)
from .kfold import (
    TypeClassTable,
    _check_multinomial_bound,
    _check_successor_cap,
    _check_type_cap,
    _measure_vector,
    _mixed_expectations,
    _test_values,
    _type_table,
    kfold_expectation,
    kfold_type_classes,
)


# ---------------------------------------------------------------------------
# Mixtures and proxies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureInstance:
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

    def to_json(self) -> dict:
        return {
            "d0": self.d0.to_json(),
            "d1": self.d1.to_json(),
            "prior": self.prior,
            "d_x": self.d_x.to_json(),
            "g": self.g.to_json(),
        }


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

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "tilde0": self.tilde0.to_json(),
            "tilde1": self.tilde1.to_json(),
            "hat0": self.hat0.tolist(),
            "hat1": self.hat1.tolist(),
        }


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
        if k < 1:
            raise ValidationError("k must be >= 1")
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

    def tie_on_counts(self, counts: np.ndarray) -> np.ndarray:
        return self.outcomes(counts)[1]

    def describe(self) -> str:
        if self.kind == "balanced":
            return f"product-threshold[balanced, k={self.k}]"
        return f"product-threshold[tilted, k={self.k}, eps={self.eps!r}]"


def _masked_score(counts: np.ndarray, logvec: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        terms = counts * logvec[None, :]
        terms = np.where(counts > 0, terms, 0.0)
    return terms.sum(axis=1)


def product_distinguisher(
    h: BoundedFn, k: int, variant: str = "balanced", epsilon: float | None = None
) -> ProductTest:
    """The optimal product test read off a simulator; see ProductTest."""
    return ProductTest(h, k, variant, eps=epsilon)


def test_advantage(test: ProductTest, m0, m1, k: int) -> float:
    """|E_{m0^k}[test] - E_{m1^k}[test]| by exact type-class sums.

    Accepts raw measures; the expectations are then raw weighted sums.
    """
    table = kfold_type_classes([m0, m1], k)
    return _advantage(table, _test_values(test, table.counts), 0, 1)


def _advantage(table: TypeClassTable, values: np.ndarray, i: int, j: int) -> float:
    return abs(table.expectation(i, values) - table.expectation(j, values))


def tie_mass(test: ProductTest, m, k: int) -> float:
    """Product mass of exact score ties under the k-fold product of m."""
    return kfold_expectation(test.tie_on_counts, m, k)


def hybrid_bound_check(
    h: BoundedFn,
    dist_b: Distribution,
    hat_b: np.ndarray,
    k: int,
    test: ProductTest | None = None,
) -> float:
    """Swap hat coordinates for real ones one at a time and measure how much
    each swap moves the test's expectation.

    Every section of the product test in one coordinate is a threshold in
    h of that coordinate, and thresholded reweightings of h separate
    dist_b from hat_b by at most twice the calibration error (gamma / eps
    in the tilted regime).  Returns the largest measured gap; callers
    assert it against the applicable bound.  The k + 1 hybrids
    dist_b^j x hat_b^(k-j) are exact type sums (kfold's mixed products).
    """
    test = test or product_distinguisher(h, k, "balanced")
    if test.k != k:
        raise ValidationError("test arity does not match k")
    n = _measure_vector(dist_b, None, "measure 0").size
    _check_successor_cap(n, k)
    values = _test_values(test, _type_table(n, k)[0])
    return _hybrid_gaps(values, [(dist_b, hat_b)], k)[0]


def _hybrid_gaps(values: np.ndarray, pairs, k: int) -> list[float]:
    """Per (dist, hat) pair, the largest gap between adjacent hybrids."""
    return [
        float(np.max(np.abs(np.diff(sums)))) for sums in _mixed_expectations(values, pairs, k)
    ]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Inequality:
    """One checked claim lhs <= rhs, with slack = rhs - lhs."""

    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passes(self) -> bool:
        return self.lhs <= self.rhs + DERIVED_TOL

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.passes,
        }


@dataclass(frozen=True)
class CharacterizationReport:
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

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "instance": self.instance,
            "params": self.params,
            "audits": self.audits,
            "inequalities": [iq.to_json() for iq in self.inequalities],
            "witnesses": self.witnesses,
            "extras": self.extras,
        }


def _require_hypothesis(name: str, measured: float, bound: float) -> None:
    if measured > bound + DERIVED_TOL:
        raise ValidationError(
            f"hypothesis audit failed: {name} measured {measured!r}, needs <= {bound!r}"
        )


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
    if not (0.0 < gamma < 0.1):
        raise ValidationError("gamma must lie in (0, 1/10)")
    ma, ma_witness = multiaccuracy_error(family, inst.g, h, inst.d_x)
    _require_hypothesis("regularity (multiaccuracy) of h", ma, epsilon)
    cal = calibration_error(inst.g, h, inst.d_x)
    _require_hypothesis("calibration of h", cal, gamma)

    proxies = build_proxies(inst, h)
    test = product_distinguisher(h, k, "balanced")

    fd0 = family_distance(family, inst.d0, proxies.tilde0)
    fd1 = family_distance(family, inst.d1, proxies.tilde1)
    hat_fd0 = raw_family_distance(family, inst.d0.weights, proxies.hat0)
    hat_fd1 = raw_family_distance(family, inst.d1.weights, proxies.hat1)
    tv_th0 = l1_half(proxies.tilde0.weights, proxies.hat0)
    tv_th1 = l1_half(proxies.tilde1.weights, proxies.hat1)

    # One k-fold pass: one table (rows tilde0, tilde1, d0, d1, hat0, hat1,
    # the order in which the statistics below first read them, so the sum
    # check meets a bad measure first where the standalone calls would),
    # one scoring of the size-k types and one successor build for both
    # hybrids.
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
            "multiaccuracy_error": ma,
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
            "regularity_witness": ma_witness.index,
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
    if not (0.0 < gamma < epsilon / 2.0):
        raise ValidationError("gamma must lie in (0, epsilon / 2)")
    ma, ma_witness = multiaccuracy_error(family, inst.g, h, inst.d_x)
    _require_hypothesis("regularity (multiaccuracy at epsilon^2) of h", ma, epsilon ** 2)
    cal = calibration_error(inst.g, h, inst.d_x)
    _require_hypothesis("calibration of h", cal, gamma)

    proxies = build_proxies(inst, h)
    test = product_distinguisher(h, k, "tilted", epsilon=epsilon)

    fd1 = family_distance(family, inst.d1, proxies.tilde1)
    tv_th1 = l1_half(proxies.tilde1.weights, proxies.hat1)
    # One k-fold pass, as in verify_two_proxy: rows d0, tilde1, d1.
    table = kfold_type_classes([inst.d0, proxies.tilde1, inst.d1], k)
    fire, tie = test.outcomes(table.counts)
    tv_proxy = table.tv(0, 1)
    tv_true = table.tv(0, 2)
    advantage = _advantage(table, fire, 0, 2)
    (hybrid1,) = _hybrid_gaps(fire, [(inst.d1, proxies.hat1)], k)
    ident_d1 = float(
        np.max(np.abs(inst.d1.weights - inst.g.values * inst.d_x.weights / inst.prior))
    )
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
            "multiaccuracy_error": ma,
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
            "regularity_witness": ma_witness.index,
            "proxy1_witness": fd1.index,
            "test": test.describe(),
            "tilde0": "d0 (single-proxy mode: no proxy constructed for d0)",
        },
    )


# ---------------------------------------------------------------------------
# End-to-end characterizations
# ---------------------------------------------------------------------------


def _fit_and_verify(
    d0: Distribution,
    d1: Distribution,
    levels: Sequence[Family] | GradedLadder,
    growth: GrowthMap | None,
    epsilon: float,
    k: int,
    mode: str,
) -> tuple[CharacterizationReport, float, float, tuple[int, int]]:
    """Shared core of characterize and characterize_super.

    Picks the prior, the regularity tolerance and the calibration target of
    the mode, fits a simulator to the mixture's posterior that is calibrated
    and regular against the fooled family (the calibrated boost on
    levels[0] without a growth map, the calibrated expanding run up the
    ladder with one), and verifies it.  Returns the verification report,
    tol, gamma and the run's final (level, fooled).
    """
    if mode not in ("two-proxy", "single-proxy"):
        raise ValidationError("mode must be 'two-proxy' or 'single-proxy'")
    if k < 1:
        raise ValidationError("k must be >= 1")
    # The k-fold limits depend on N and k alone, so an over-reach k is
    # refused before the simulator is fitted.
    _check_type_cap(d0.size, k)
    _check_multinomial_bound(d0.size, k)
    _check_successor_cap(d0.size, k)
    if mode == "two-proxy":
        prior, tol, gamma = 0.5, epsilon, epsilon ** 2 / 20.0
    else:
        prior, tol, gamma = epsilon, epsilon ** 2, epsilon ** 3 / 20.0
    inst = build_mixture(d0, d1, prior)
    params = BoostParams(epsilon=tol, gamma=gamma)
    if growth is None:
        h, _ = calibrated_multiaccuracy(inst.g, inst.d_x, levels[0], params)
        reached = (0, 0)
    else:
        h, _, reached = _boost(
            inst.g, inst.d_x, params, levels, growth=partial(apply_growth, growth),
            gamma=gamma, termination="regular-and-calibrated-above-level",
        )
    family = levels[reached[1]]
    if mode == "two-proxy":
        base = verify_two_proxy(inst, h, family, tol, gamma, k)
    else:
        base = verify_single_proxy(inst, h, family, epsilon, gamma, k)
    return base, tol, gamma, reached


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
    lift = (fd.value, lift_name, f"{family[fd.index].descriptor}@coord0")
    advantage = base.audits["advantage"]
    top = (advantage, base.witnesses["test"]) if advantage > fd.value else (lift[0], lift[2])
    return lift, (top[0], f"{lift_name}+product-test", top[1])


def _chain_report(
    base: CharacterizationReport,
    lower: tuple[float, str, str],
    upper: tuple[float, str, str],
    epsilon: float,
    k: int,
) -> tuple[tuple[Inequality, Inequality], dict]:
    """The chain relating the family distances of the k-fold originals to
    the k-fold proxy total variation, and its report fields."""
    proxy_tv = base.audits["tv_kfold_proxies" if base.mode == "two-proxy" else "tv_kfold_d0_proxy"]
    chain = (
        Inequality("chain-lower", lower[0] - k * epsilon, proxy_tv),
        Inequality("chain-upper", proxy_tv, upper[0] + k * epsilon),
    )
    return chain, {
        "family_distance_lower": lower[0],
        "family_distance_upper": upper[0],
        "proxy_tv": proxy_tv,
        "k_epsilon": k * epsilon,
        "lower_family": lower[1],
        "upper_family": upper[1],
        "lower_witness": lower[2],
        "upper_witness": upper[2],
    }


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

    The calibration target is epsilon^2 / 20 in two-proxy mode and
    epsilon^3 / 20 in single-proxy mode, small enough that every
    calibration-driven slack is dominated by the epsilon terms.  The chain's
    lower family is the per-coordinate lift of the input family; the upper
    family adds the constructed product test.  The two families
    deliberately differ: closing that gap is exactly what the
    ladder-based variant below is for.
    """
    base, tol, gamma, _ = _fit_and_verify(d0, d1, [family], None, epsilon, k, mode)
    lift, upper = _chain_gaps(base, family, f"lift({family.name}, k={k})", d0, d1)
    chain, chain_info = _chain_report(base, lift, upper, epsilon, k)
    chain_info["distinct_families"] = True
    certified = 2 * tol + 5 * gamma if mode == "two-proxy" else epsilon + 2 * gamma / epsilon ** 2
    return replace(
        base,
        mode=f"characterize/{mode}",
        params={"epsilon": epsilon, "gamma": gamma, "k": k, "tolerance": tol},
        inequalities=base.inequalities + chain,
        extras={
            **base.extras,
            "chain": chain_info,
            "certified_proxy_indistinguishability": certified,
        },
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
    base, tol, gamma, (level, fooled) = _fit_and_verify(
        d0, d1, ladder, growth, epsilon, k, mode
    )
    _, upper = _chain_gaps(base, ladder[fooled], f"lift({ladder.name}[{fooled}], k={k})", d0, d1)
    chain, chain_info = _chain_report(base, upper, upper, epsilon, k)
    chain_info.update(distinct_families=False, simulator_level=level, chain_level=fooled)
    if growth.table[level] == level:
        chain_info["degenerate_growth"] = (
            "growth map fixes this level; the product test may exceed the fooled "
            "class, reproducing the two-family gap"
        )
    return replace(
        base,
        mode=f"characterize-super/{mode}",
        params={"epsilon": epsilon, "gamma": gamma, "k": k, "tolerance": tol},
        inequalities=base.inequalities + chain,
        extras={**base.extras, "chain": chain_info},
    )
