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
    ma, _ = rs.multiaccuracy_error(ladder[res.fooled_level], g10, res.h, uniform2)
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
        ma, _ = rs.multiaccuracy_error(ladder[res.fooled_level], g, res.h, d)
        assert ma <= eps + TOL
        assert res.updates <= math.floor(1 / (3 * eps * eps))
        formal = res.recurrence.labels[min(res.bound_index, len(res.recurrence.labels) - 1)]
        assert res.label.le(formal)


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
    ok, measured = rs.corollary_check(pair, ladder, growth)
    assert ok


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
        ok, measured = rs.corollary_check(pair, ladder, growth)
        assert ok
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
    ok, measured = rs.corollary_check(pair, ladder, growth)
    assert ok and measured <= pair.eps_at_s + TOL


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
