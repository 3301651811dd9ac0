import math

import numpy as np
import pytest

import regsim as rs
from conftest import nested_ladder, random_bounded, random_distribution

TOL = 1e-10


def demo_ladder(pad_to=12):
    levels = [
        rs.explicit_family([[1.0, 1.0]], name="L0"),
        rs.explicit_family([[1.0, 1.0], [0.0, 1.0]], name="L1"),
        rs.explicit_family([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], name="L2"),
    ]
    return rs.GradedLadder(levels, name="demo").padded(pad_to)


def test_expanding_constant_target(uniform2):
    g = rs.BoundedFn(np.array([0.5, 0.5]))
    ladder = demo_ladder()
    growth = rs.GrowthMap.shift(ladder, 1)
    res = rs.supersimulator_expanding(g, uniform2, ladder, growth, 0.1)
    assert res.updates == 0
    assert res.level == 0
    assert res.fooled_level == 1
    assert np.all(res.h.values == 0.5)


def test_expanding_two_point_run(uniform2, g10):
    ladder = demo_ladder()
    growth = rs.GrowthMap.shift(ladder, 1)
    res = rs.supersimulator_expanding(g10, uniform2, ladder, growth, 0.1)
    # audited against the level above its own
    assert res.fooled_level == res.level + 1
    ma = rs.best_response(ladder[res.fooled_level], g10, res.h, uniform2).correlation
    assert ma <= 0.1 + TOL
    assert res.updates <= res.bound_index


def test_expanding_identity_growth_matches_boost(uniform2, g10):
    base = rs.explicit_family([[1.0, 1.0], [0.0, 1.0]], name="L0")
    ladder = rs.GradedLadder([base, base, base], name="flat")
    growth = rs.GrowthMap.identity(ladder)
    res = rs.supersimulator_expanding(g10, uniform2, ladder, growth, 0.1)
    h, trace = rs.multiaccuracy_boost(g10, uniform2, base, rs.BoostParams(epsilon=0.1))
    assert np.array_equal(res.h.values, h.values)
    assert res.updates == trace.update_count
    assert res.level == 0
    for r1, r2 in zip(res.trace.records, trace.records):
        assert r1.correlation == r2.correlation
        assert r1.digest == r2.digest


def test_expanding_ladder_exhaustion_reports_level_and_phi(uniform2, g10):
    ladder = demo_ladder(pad_to=3)  # too shallow for eps = 0.1
    growth = rs.GrowthMap.shift(ladder, 1)
    with pytest.raises(rs.LadderExhaustedError) as err:
        rs.supersimulator_expanding(g10, uniform2, ladder, growth, 0.1)
    assert err.value.level == 2
    assert err.value.phi is not None


def test_expanding_random_instances_contract():
    rng = np.random.default_rng(30)
    for _ in range(15):
        n = int(rng.integers(2, 8))
        eps = float(rng.choice([0.2, 0.3, 0.4]))
        shift = int(rng.choice([1, 2]))
        depth = max(6, shift * (rs.updates_bound(eps) + 1) + 1)
        ladder = nested_ladder(rng, n, 4, pad_to=depth)
        growth = rs.GrowthMap.shift(ladder, shift)
        g = random_bounded(rng, n)
        d = random_distribution(rng, n)
        res = rs.supersimulator_expanding(g, d, ladder, growth, eps)
        ma = rs.best_response(ladder[res.fooled_level], g, res.h, d).correlation
        assert ma <= eps + TOL
        assert res.updates <= math.floor(1 / (3 * eps * eps))
        formal = res.recurrence.labels[min(res.bound_index, len(res.recurrence.labels) - 1)]
        assert res.label.le(formal)


def test_expanding_report_lists_its_contract_measured_once(monkeypatch):
    from regsim import supersim
    from regsim.config import plan_config
    from regsim.demos import demo_config
    from regsim.runner import run_config

    names = ["regular-against-grown-family", "updates-within-bound",
             "label-s1-within-bound", "label-s2-within-bound"]
    for eps in (0.1, 0.2, 0.3):
        config = demo_config("supersim-expanding")
        config["params"]["epsilon"] = eps
        plan, _ = plan_config(config)
        outcome = run_config(config)
        assert outcome.exit_code == 0
        payload, claims = outcome.report["payload"], outcome.report["inequalities"]
        result, h = payload["result"], rs.BoundedFn(np.array(payload["simulator"]))
        # the report's regularity claim equals a from-scratch best response
        ma = rs.best_response(plan.ladder[result["fooled_level"]], plan.target, h, plan.d)
        assert [iq["name"] for iq in claims] == names
        assert (claims[0]["lhs"], claims[0]["rhs"]) == (ma.correlation, eps)
        assert (claims[1]["lhs"], claims[1]["rhs"]) == (result["updates"], result["bound_index"])
        formal = result["recurrence"]["labels"][
            min(result["bound_index"], len(result["recurrence"]["labels"]) - 1)
        ]
        assert [iq["rhs"] for iq in claims[2:]] == formal
        assert [iq["lhs"] for iq in claims[2:]] == result["label"]
    # a failed claim is a library bug: exit 3, naming it
    monkeypatch.setattr(supersim, "best_response", lambda *a: rs.BestResponse(0, 1, 0.5))
    outcome = run_config(demo_config("supersim-expanding"))
    assert outcome.exit_code == 3
    assert "regular-against-grown-family" in outcome.report["error"]["message"]


def test_shrinking_report_lists_its_contract_measured_once(monkeypatch):
    from regsim import supersim
    from regsim.config import plan_config
    from regsim.demos import demo_config
    from regsim.runner import run_config

    names = ["similarity", "markov-regularity-of-h", "round-index"]
    # h = h' (alpha 0.1), and h != h' (the demo, and a target near 0.4)
    configs = [demo_config("supersim-shrinking") for _ in range(3)]
    configs[0]["params"]["alpha"] = 0.1
    configs[2]["target"] = [0.3, 0.45]
    for config in configs:
        plan, _ = plan_config(config)
        outcome = run_config(config)
        assert outcome.exit_code == 0
        payload, claims = outcome.report["payload"], outcome.report["inequalities"]
        pair, h = payload["pair"], rs.BoundedFn(np.array(payload["simulator"]))
        assert [iq["name"] for iq in claims] == names
        # each claim equals a from-scratch measurement
        diff = h.values - np.array(payload["simulator_prime"])
        similarity = float(np.dot(plan.d.weights, diff * diff))
        assert (claims[0]["lhs"], claims[0]["rhs"]) == (
            similarity, pair["phi_gap"] + 4 * pair["eps_at_s"]
        )
        markov = rs.best_response(plan.ladder[pair["level_s_prime"]], plan.target, h, plan.d)
        assert (claims[1]["lhs"], claims[1]["rhs"]) == (
            markov.correlation, pair["eps_at_s"] + 2 * similarity ** (1 / 3)
        )
        assert (claims[2]["lhs"], claims[2]["rhs"]) == (pair["round_index"], pair["round_bound"] + 1)
        # the payload's corollary fields are the Markov claim's two readings
        assert payload["corollary_measured_error"] == claims[1]["lhs"]
        assert payload["corollary_passes"] is claims[1]["pass"]
    # a failed claim is a library bug: exit 3, naming it.  Only h, not h',
    # is made to look irregular, so every other claim still holds.
    h_prime = np.array(payload["simulator_prime"])
    real = supersim.best_response

    def skewed(family, g, h, dist):
        if np.array_equal(h.values, h_prime):
            return real(family, g, h, dist)
        return rs.BestResponse(0, 1, 0.5)

    monkeypatch.setattr(supersim, "best_response", skewed)
    outcome = run_config(config)
    assert outcome.exit_code == 3
    assert "markov-regularity-of-h" in outcome.report["error"]["message"]


def test_recurrence_bound_rounds_zero():
    ladder = demo_ladder()
    growth = rs.GrowthMap.shift(ladder, 1)
    rb = rs.recurrence_bound(growth, 0, mode="expanding", epsilon=0.4)
    assert rb.labels == (rs.ComplexityLabel(1, 1),)


def test_recurrence_bound_identity_label_step():
    ladder = demo_ladder()
    growth = rs.GrowthMap.identity(ladder)
    eps = 0.4
    rb = rs.recurrence_bound(growth, 1, mode="expanding", epsilon=eps)
    clog = math.ceil(math.log2(1 / eps ** 10)) ** 2
    assert rb.labels[1] == rs.ComplexityLabel(2, 2 + clog)


def test_recurrence_bound_shrinking_mode_and_saturation():
    ladder = demo_ladder()
    growth = rs.GrowthMap.shift(ladder, 1)
    sched = rs.ErrorSchedule.constant(0.05)
    rb = rs.recurrence_bound(growth, 40, mode="shrinking", schedule=sched)
    assert len(rb.labels) == 41
    assert rb.saturated  # multiplicative recurrence blows past the clamp
    assert rb.labels[-1].s2 <= 10 ** 15


def test_shrinking_first_gap_qualifies(uniform2, g10):
    ladder = demo_ladder()
    growth = rs.GrowthMap.shift(ladder, 1)
    sched = rs.ErrorSchedule.constant(0.05)
    pair = rs.supersimulator_shrinking(g10, uniform2, ladder, growth, sched, 0.3)
    assert pair.round_index == 0  # first gap is at most phi(0) <= 1/4 < alpha... qualifies here
    assert pair.level_s == 0 and pair.level_s_prime == 1
    assert pair.similarity <= pair.phi_gap + 4 * pair.eps_at_s + TOL


def test_shrinking_alpha_below_two_to_minus_100_is_a_validation_error(uniform2, g10):
    # 1 / 5e-324 is inf, and the round bound floor(1 / alpha) raised OverflowError
    ladder = demo_ladder()
    growth = rs.GrowthMap.shift(ladder, 1)
    sched = rs.ErrorSchedule.constant(0.05)
    with pytest.raises(rs.ValidationError, match=r"alpha must be at least 2\^-100"):
        rs.supersimulator_shrinking(g10, uniform2, ladder, growth, sched, 5e-324)


def test_recurrence_beyond_cap_is_refused_before_the_run(uniform2, g10):
    # one label per round of the bound: epsilon = 1e-3 (333,333 updates) and
    # alpha = 1e-5 (10^5 rounds) built tables of that many labels, and
    # epsilon = 1e-4 ran out of memory
    ladder = demo_ladder()
    growth = rs.GrowthMap.shift(ladder, 1)
    sched = rs.ErrorSchedule.constant(0.05)
    with pytest.raises(rs.ValidationError, match="above the cap of 65536"):
        rs.supersimulator_expanding(g10, uniform2, ladder, growth, 1e-3)
    with pytest.raises(rs.ValidationError, match="above the cap of 65536"):
        rs.supersimulator_shrinking(g10, uniform2, ladder, growth, sched, 1e-5)
    assert len(rs.recurrence_bound(growth, 1 << 16, mode="expanding", epsilon=0.1).labels) == 65537


def test_shrinking_constant_target_zero_similarity(uniform2):
    g = rs.BoundedFn(np.array([0.3, 0.3]))
    ladder = demo_ladder()
    growth = rs.GrowthMap.shift(ladder, 1)
    sched = rs.ErrorSchedule.constant(0.1)
    pair = rs.supersimulator_shrinking(g, uniform2, ladder, growth, sched, 0.4)
    assert pair.similarity <= 4 * pair.eps_at_s + TOL
    assert all(iq.passes for iq in pair.inequalities)


def test_shrinking_identity_and_bounds_random():
    rng = np.random.default_rng(31)
    for _ in range(12):
        n = int(rng.integers(2, 8))
        alpha = float(rng.choice([0.2, 0.3, 0.45]))
        eps_val = float(rng.choice([0.05, 0.1]))
        shift = int(rng.choice([1, 2]))
        rounds_needed = math.floor(1 / alpha) + 2
        ladder = nested_ladder(rng, n, 4, pad_to=shift * rounds_needed + 2)
        growth = rs.GrowthMap.shift(ladder, shift)
        sched = rs.ErrorSchedule.constant(eps_val)
        g = random_bounded(rng, n)
        d = random_distribution(rng, n)
        pair = rs.supersimulator_shrinking(g, d, ladder, growth, sched, alpha)
        # decomposition checked to exact tolerance
        diff = pair.h.values - pair.h_prime.values
        sim = float(np.dot(d.weights, diff * diff))
        cross = float(np.dot(d.weights, diff * (g.values - pair.h_prime.values)))
        assert abs(sim - (pair.phi_gap + 2 * cross)) <= TOL
        assert abs(cross) <= 2 * pair.eps_at_s + TOL
        assert pair.phi_gap <= alpha
        assert pair.similarity <= alpha + 4 * pair.eps_at_s + TOL
        assert pair.round_index <= pair.round_bound + 1
        measured = rs.best_response(ladder[pair.level_s_prime], g, pair.h, d).correlation
        beta = pair.similarity
        assert measured <= pair.eps_at_s + 2 * beta ** (1 / 3) + TOL


def test_corollary_check_equal_pair_bound_is_schedule_value(uniform2):
    # alpha below the first potential gap, so the qualifying pair is two
    # consecutive exact fits: h = h', similarity exactly 0
    g = rs.BoundedFn(np.array([0.3, 0.3]))
    ladder = demo_ladder(pad_to=110)
    growth = rs.GrowthMap.shift(ladder, 1)
    sched = rs.ErrorSchedule.constant(0.1)
    pair = rs.supersimulator_shrinking(g, uniform2, ladder, growth, sched, 0.01)
    assert pair.round_index == 1
    assert pair.similarity == pytest.approx(0.0, abs=TOL)
    markov = pair.inequalities[1]
    assert markov.name == "markov-regularity-of-h"
    assert markov.passes and markov.lhs <= pair.eps_at_s + TOL


def test_shrinking_alpha_range(uniform2, g10):
    ladder = demo_ladder()
    growth = rs.GrowthMap.shift(ladder, 1)
    sched = rs.ErrorSchedule.constant(0.1)
    with pytest.raises(rs.ValidationError):
        rs.supersimulator_shrinking(g10, uniform2, ladder, growth, sched, 0.7)


@pytest.mark.parametrize(
    "epsilon,bits",
    # eps^10 = 2^-33.2, 2^-50.6, 2^-66.4 and 2^-1000: the grid is charged the
    # bits it holds, at most the 52 of a double near 1
    [(0.1, 34), (0.03, 51), (0.01, 52), (2.0**-100, 52)],
)
def test_polylog_gates_charge_at_most_double_precision(epsilon, bits):
    from regsim.supersim import polylog_gates

    assert polylog_gates(epsilon) == bits**2
