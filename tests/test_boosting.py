import json
import math
import tracemalloc

import hypothesis as hyp
import numpy as np
import pytest

import regsim as rs
from conftest import random_bounded, random_distribution, random_family
from oracles import (
    best_threshold_loop,
    calibration_error_extreme_points,
    level_sets_loop,
    level_sets_unique,
    level_sums_by_point,
    multicalibrate_rescan,
    recalibrate_loop,
)
from regsim.boosting import (
    _POINT_BLOCK,
    _best_threshold_shift,
    _level_matrix,
    _level_sets,
    _point_sums,
    _worst_weighted_violation,
)

TOL = 1e-10


def ind_x1_family():
    return rs.explicit_family([[0.0, 1.0]], name="ind1")


# -- multiaccuracy boost ----------------------------------------------------


def test_boost_zero_iterations_at_half(uniform2):
    g = rs.BoundedFn(np.array([0.5, 0.5]))
    h, trace = rs.multiaccuracy_boost(g, uniform2, ind_x1_family(), rs.BoostParams(epsilon=0.1))
    assert trace.update_count == 0
    assert np.all(h.values == 0.5)


def test_boost_hand_simulated_run(uniform2, g10):
    h, trace = rs.multiaccuracy_boost(g10, uniform2, ind_x1_family(), rs.BoostParams(epsilon=0.1))
    assert trace.update_count == 3
    assert h.values[0] == pytest.approx(0.5, abs=1e-9)
    assert h.values[1] == pytest.approx(0.2, abs=1e-9)


def test_boost_constant_family_mean_matched(uniform2):
    g = rs.BoundedFn(np.array([0.9, 0.1]))  # E[g] = 0.5 = h0 mean
    fam = rs.explicit_family([[1.0, 1.0]])
    _, trace = rs.multiaccuracy_boost(g, uniform2, fam, rs.BoostParams(epsilon=0.1))
    assert trace.update_count == 0


def test_boost_params_validation():
    with pytest.raises(rs.ValidationError, match=r"epsilon must lie in \(0, 0.5\)"):
        rs.BoostParams(epsilon=0.7)
    with pytest.raises(rs.ValidationError):
        rs.BoostParams(epsilon=0.1, gamma=0.2)  # gamma above epsilon
    params = rs.BoostParams(epsilon=0.1)
    assert params.round_grid == pytest.approx(1e-10)
    assert params.max_iters == rs.updates_bound(0.1)


def test_accuracy_below_two_to_minus_100_is_a_validation_error(uniform2, g10):
    # below 2^-100 the default grid epsilon^10 leaves the normal doubles and
    # the update bounds overflow: 1e-300 once raised ZeroDivisionError
    floor = 2.0 ** -100
    assert rs.BoostParams(epsilon=floor, gamma=floor).round_grid == floor ** 10 > 0.0
    fam = ind_x1_family()
    for make in (
        lambda: rs.BoostParams(epsilon=1e-300),
        lambda: rs.BoostParams(epsilon=floor / 2),
        lambda: rs.BoostParams(epsilon=0.1, gamma=5e-324),
        lambda: rs.multicalibrate(g10, uniform2, fam, 1e-100),
    ):
        with pytest.raises(rs.ValidationError, match=r"at least 2\^-100"):
            make()


def test_boost_iteration_bound_and_potential_law():
    rng = np.random.default_rng(20)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        eps = float(rng.choice([0.1, 0.2, 0.4]))
        g = random_bounded(rng, n)
        d = random_distribution(rng, n)
        fam = random_family(rng, n, int(rng.integers(1, 10)))
        h, trace = rs.multiaccuracy_boost(g, d, fam, rs.BoostParams(epsilon=eps))
        assert trace.update_count <= math.ceil(1 / (3 * eps * eps)) + 1
        grid = eps ** 10
        for r in trace.records:
            drop = r.phi_before - r.phi_after
            assert drop >= 0.75 * eps * eps - TOL
            assert r.phi_after <= r.phi_before - 2 * eps * r.correlation + eps ** 2 + 2 * grid + TOL
        # from-scratch audit, never trusting the constructor
        ma = rs.best_response(fam, g, h, d).correlation
        assert ma <= eps + TOL


# Both step rules, (name, run), each making updates on a four-point instance.
STEP_RULES = [
    ("correlation", lambda g, d, f: rs.multiaccuracy_boost(g, d, f, rs.BoostParams(epsilon=0.1))),
    ("level", lambda g, d, f: rs.multicalibrate(g, d, f, 0.2)),
]


@pytest.mark.parametrize("run", [r for _, r in STEP_RULES], ids=[n for n, _ in STEP_RULES])
def test_potential_drop_check_is_one_text(monkeypatch, run):
    """Both step rules are held to their guaranteed drop by the one loop:
    a potential that stops falling is refused at the first update."""
    real = rs.boosting.potential
    seen = []

    def stalled(g, h, dist):
        seen.append(h)
        return real(g, h, dist) + (0.5 if len(seen) > 1 else 0.0)

    monkeypatch.setattr(rs.boosting, "potential", stalled)
    with pytest.raises(
        rs.InternalContractError,
        match=r"^update at step 0 breaks potential-drop: 0\.\d+ > -0\.\d+$",
    ):
        run(
            rs.BoundedFn(np.array([0.9, 0.1, 0.8, 0.2])),
            rs.Distribution.uniform(4),
            rs.explicit_family([[1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]]),
        )


def test_boost_trace_jsonl():
    g = rs.BoundedFn(np.array([1.0, 0.0]))
    _, trace = rs.multiaccuracy_boost(
        g, rs.Distribution.uniform(2), ind_x1_family(), rs.BoostParams(epsilon=0.1)
    )
    lines = trace.to_jsonl().splitlines()
    assert len(lines) == trace.update_count + 1
    *updates, _ = (json.loads(line) for line in lines)
    assert updates
    for record in updates:
        # a plain boost update has no detail and no null field
        assert set(record) == {
            "step", "kind", "phi_before", "phi_after", "digest",
            "correlation", "sign", "member_index", "descriptor",
        }
        assert None not in record.values()


# -- calibration ------------------------------------------------------------


def test_calibration_error_zero_for_exact(uniform2, g10):
    assert rs.calibration_error(g10, g10, uniform2) == 0.0


def test_calibration_error_constant_half(uniform2, g10):
    h = rs.BoundedFn(np.array([0.5, 0.5]))
    assert rs.calibration_error(g10, h, uniform2) == pytest.approx(0.0, abs=TOL)


def test_calibration_error_level_sums(uniform2, g10):
    h = rs.BoundedFn(np.array([0.5, 0.2]))
    assert rs.calibration_error(g10, h, uniform2) == pytest.approx(0.25, abs=TOL)


def test_calibration_error_matches_extreme_point_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = random_bounded(rng, n)
        d = random_distribution(rng, n)
        # at most 12 levels: round h to a coarse grid
        h = rs.BoundedFn(rs.round_to_grid(rng.uniform(size=n), 0.25))
        closed = rs.calibration_error(g, h, d)
        brute = calibration_error_extreme_points(list(g.values), list(h.values), list(d.weights))
        assert closed == pytest.approx(brute, abs=1e-12)


def test_recalibrate_perfectly_calibrated_noop(uniform2):
    g = rs.BoundedFn(np.array([0.4, 0.8]))
    h = rs.BoundedFn(np.array([0.4, 0.8]))
    out = rs.recalibrate(g, h, uniform2, 0.1)
    assert np.allclose(out.values, [0.4, 0.8], atol=0.05 + 1e-12)


def test_recalibrate_single_level(uniform2, g10):
    h = rs.BoundedFn(np.array([0.5, 0.5]))
    out = rs.recalibrate(g10, h, uniform2, 0.1)
    assert np.allclose(out.values, 0.5, atol=1e-12)


def test_recalibrate_singleton_levels(uniform2, g10):
    h = rs.BoundedFn(np.array([0.5, 0.2]))
    out = rs.recalibrate(g10, h, uniform2, 0.01)
    assert list(out.values) == [1.0, 0.0]


def test_recalibrate_contract():
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        gamma = float(rng.choice([0.05, 0.1, 0.3]))
        g, h = random_bounded(rng, n), random_bounded(rng, n)
        d = random_distribution(rng, n)
        out = rs.recalibrate(g, h, d, gamma)
        assert rs.calibration_error(g, out, d) <= gamma + TOL
        assert rs.potential(g, out, d) <= rs.potential(g, h, d) + 2 * gamma + TOL


# -- calibrated multiaccuracy -----------------------------------------------


def test_calibrated_exact_fit_constant_on_grid(uniform2):
    g = rs.BoundedFn(np.array([0.3, 0.3]))
    h, _ = rs.calibrated_multiaccuracy(
        g, uniform2, ind_x1_family(), rs.BoostParams(epsilon=0.1, gamma=0.1)
    )
    assert np.allclose(h.values, 0.3, atol=1e-12)


def test_calibrated_two_point_run(uniform2, g10):
    h, trace = rs.calibrated_multiaccuracy(
        g10, uniform2, ind_x1_family(), rs.BoostParams(epsilon=0.1, gamma=0.01)
    )
    ma = rs.best_response(ind_x1_family(), g10, h, uniform2).correlation
    assert ma <= 0.1 + TOL
    assert rs.calibration_error(g10, h, uniform2) <= 0.01 + TOL
    assert h.values[0] == 1.0  # singleton level sets collapse to g there


def test_calibrated_constant_zero_family(uniform2, g10):
    fam = rs.explicit_family([[0.0, 0.0]], name="zero")
    h, trace = rs.calibrated_multiaccuracy(
        g10, uniform2, fam, rs.BoostParams(epsilon=0.1, gamma=0.05)
    )
    assert trace.update_count == 0
    assert rs.calibration_error(g10, h, uniform2) <= 0.05 + TOL


def test_calibrated_requires_gamma(uniform2, g10):
    with pytest.raises(rs.ValidationError, match="gamma"):
        rs.calibrated_multiaccuracy(g10, uniform2, ind_x1_family(), rs.BoostParams(epsilon=0.1))


def test_calibrated_update_budget():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        eps = float(rng.choice([0.1, 0.2, 0.4]))
        gamma = eps * float(rng.choice([0.2, 1.0]))
        g = random_bounded(rng, n)
        d = random_distribution(rng, n)
        fam = random_family(rng, n, int(rng.integers(1, 8)))
        h, trace = rs.calibrated_multiaccuracy(
            g, d, fam, rs.BoostParams(epsilon=eps, gamma=gamma)
        )
        assert trace.update_count <= math.ceil(1 / (3 * eps * eps)) + 1
        ma = rs.best_response(fam, g, h, d).correlation
        assert ma <= eps + TOL
        assert rs.calibration_error(g, h, d) <= gamma + TOL


# -- multicalibration -------------------------------------------------------


def test_multicalibration_check_exact_simulator(uniform2, g10):
    fam = ind_x1_family()
    for eps in (0.01, 0.1, 0.5):
        assert rs.multicalibration_check(g10, g10, uniform2, fam, eps).passes


def test_multicalibration_check_constant_half_fails(uniform2, g10):
    h = rs.BoundedFn(np.array([0.5, 0.5]))
    audit = rs.multicalibration_check(g10, h, uniform2, ind_x1_family(), 0.1)
    assert not audit.passes
    assert audit.bad_mass == pytest.approx(1.0, abs=TOL)
    assert audit.levels[0].max_error == pytest.approx(0.25, abs=TOL)


def test_multicalibration_check_vacuous_at_one(uniform2, g10):
    h = rs.BoundedFn(np.array([0.5, 0.5]))
    assert rs.multicalibration_check(g10, h, uniform2, ind_x1_family(), 1.0).passes


def test_multicalibration_audit_and_report_agree_at_the_tolerance_edge():
    # one failing level of mass 0.25, against an epsilon 5e-11 below it:
    # within DERIVED_TOL, so the audit passes exactly when the reported claim does
    eps = 0.25 - 5e-11
    audit = rs.multicalibration_check(
        rs.BoundedFn(np.array([1.0, 0.3])), rs.BoundedFn(np.array([0.5, 0.3])),
        rs.Distribution(np.array([0.25, 0.75])), rs.explicit_family([[1.0, 0.0]]), eps,
    )
    assert audit.bad_mass == 0.25
    assert audit.passes is True
    assert audit.passes == rs.Inequality("multicalibration-bad-mass", audit.bad_mass, eps).passes


def test_multicalibrate_two_point(uniform2, g10):
    h, _ = rs.multicalibrate(g10, uniform2, ind_x1_family(), 0.2)
    audit = rs.multicalibration_check(g10, h, uniform2, ind_x1_family(), 0.2)
    assert audit.passes, audit


def test_multicalibrate_single_element_domain():
    d = rs.Distribution.uniform(1)
    g = rs.BoundedFn(np.array([0.9]))
    fam = rs.explicit_family([[1.0]])
    h, _ = rs.multicalibrate(g, d, fam, 0.2)
    assert h.values[0] == pytest.approx(0.8, abs=1e-12)  # grid point nearest E[g]
    assert rs.multicalibration_check(g, h, d, fam, 0.2).passes


def test_multicalibrate_random_instances_pass_check_and_imply_multiaccuracy():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        eps = float(rng.choice([0.15, 0.2, 0.3]))
        g = random_bounded(rng, n)
        d = random_distribution(rng, n)
        fam = random_family(rng, n, int(rng.integers(1, 8)))
        h, trace = rs.multicalibrate(g, d, fam, eps)
        audit = rs.multicalibration_check(g, h, d, fam, eps)
        assert audit.passes, audit.to_json()
        # per-level guarantee implies plain multiaccuracy at 3 eps
        ma = rs.best_response(fam, g, h, d).correlation
        assert ma <= 3 * eps + TOL
        # values stay on the eps grid (clipped top point included)
        n_grid = math.ceil(1 / eps) + 1
        assert len(np.unique(h.values)) <= n_grid


def test_multicalibrate_potential_drops():
    rng = np.random.default_rng(25)
    g = random_bounded(rng, 6)
    d = random_distribution(rng, 6)
    fam = random_family(rng, 6, 5)
    eps = 0.2
    _, trace = rs.multicalibrate(g, d, fam, eps)
    floor = eps / (math.ceil(1 / eps) + 1)
    for r in trace.records:
        assert r.phi_before - r.phi_after >= eps * eps * floor - TOL


# -- audit report -----------------------------------------------------------


def test_audit_report_shape(uniform2, g10):
    fam = ind_x1_family()
    h = rs.BoundedFn(np.array([0.5, 0.2]))
    report = rs.audit(g10, h, uniform2, fam, 0.1)
    payload = report.to_json()
    assert set(payload) == {
        "multiaccuracy_error",
        "multiaccuracy_witness",
        "calibration_error",
        "multicalibration",
    }
    assert payload["calibration_error"] == pytest.approx(0.25, abs=TOL)
    assert payload["multicalibration"]["levels"]


# -- level-set layer against loop oracles ------------------------------------


def _level_instance(rng, n, m, n_values, two_point):
    """g, h with repeated levels, real-valued members (m rows) and either
    random weights or two-point weights that leave most levels massless."""
    g = rng.uniform(size=n)
    h = rng.choice(rs.round_to_grid(rng.uniform(size=n_values), 0.125), size=n)
    if two_point:
        w = np.zeros(n)
        w[rng.integers(n)] += 0.25
        w[rng.integers(n)] += 0.75
    else:
        w = rng.gamma(1.0, size=n) + 1e-9
        w /= w.sum()
    members = np.where(rng.uniform(size=(m, n)) < 0.3, 0.0, rng.uniform(size=(m, n)))
    return rs.BoundedFn(g), rs.BoundedFn(h), rs.Distribution(w), members


def test_level_sets_match_unique_bit_for_bit():
    rng = np.random.default_rng(23)
    kinds = set()
    for trial in range(400):
        n = 1 if trial < 20 else int(rng.integers(2, 300))
        # few distinct values, so ties are the rule; zeros of both signs
        values = rng.integers(0, int(rng.integers(1, 9)), size=n) / 8
        values[rng.uniform(size=n) < 0.3] = -0.0
        values[rng.uniform(size=n) < 0.1] = rng.uniform(size=n)[0]
        kinds.add((n == 1, bool(np.signbit(values).any()), len(set(values.tolist())) < n))
        h, d = rs.BoundedFn(values), random_distribution(rng, n)
        got = _level_sets(h, d)
        expected = level_sets_unique(h.values, d.weights)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # N = 1, -0.0 and ties all occurred
    assert {(True, False, False), (True, True, False), (False, True, True)} <= kinds


def test_level_layer_matches_loop_oracles():
    st = hyp.strategies

    @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hyp.given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        m=st.sampled_from([1, 3, 15, 16, 17, 33]),
        n_values=st.integers(1, 6),
        two_point=st.booleans(),
        gamma=st.sampled_from([0.01, 0.1, 0.3]),
    )
    def check(seed, n, m, n_values, two_point, gamma):
        rng = np.random.default_rng(seed)
        g, h, d, members = _level_instance(rng, n, m, n_values, two_point)
        values, inverse, masses = _level_sets(h, d)
        loop_values, loop_masses = level_sets_loop(h.values, d.weights)
        assert np.array_equal(values, loop_values)
        assert np.array_equal(masses, loop_masses)

        residual = d.weights * (g.values - h.values)
        assert (
            _level_matrix(members, residual, inverse, values.size).tobytes()
            == level_sums_by_point(members, residual, inverse, values.size).tobytes()
        )

        assert np.array_equal(
            rs.recalibrate(g, h, d, gamma).values,
            recalibrate_loop(g.values, h.values, d.weights, gamma),
        )

        level_res = level_sums_by_point(np.ones((1, n)), residual, inverse, values.size)[0]
        closed = max(level_res[level_res > 0].sum(), -level_res[level_res < 0].sum())
        assert rs.calibration_error(g, h, d) == pytest.approx(closed, rel=0, abs=1e-15)

    check()


def test_threshold_shift_matches_loop_oracle():
    st = hyp.strategies

    @hyp.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hyp.given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        sign=st.sampled_from([1, -1]),
        epsilon=st.sampled_from([0.05, 0.2, 0.5]),
    )
    def check(seed, n, sign, epsilon):
        rng = np.random.default_rng(seed)
        g, h, d, members = _level_instance(rng, n, 1, 2, False)
        # real-valued member with repeated values, at least one positive
        f_vals = rng.choice([0.0, 0.25, 0.5, 0.6, 1.0], size=n)
        f_vals[rng.integers(n)] = 0.6
        level_value = float(h.values[0])
        sel = h.values == level_value
        f_vals[np.flatnonzero(sel)[0]] = 0.5
        t, target = _best_threshold_shift(g, d, sel, f_vals, sign, epsilon, level_value)
        t_loop, target_loop = best_threshold_loop(
            g.values, d.weights, sel, f_vals, sign, epsilon, level_value
        )
        assert t == t_loop
        assert np.array_equal(target, target_loop)

    check()


def test_threshold_shift_equal_drops_pick_largest_threshold():
    # eps = 1/2, w = 1/4: t = 1 drops the potential by 1/16, and the point
    # at f = 0.5 (g - level = 1/4) adds 2 eps w (g - level) - eps^2 w = 0,
    # so t = 1 and t = 0.5 tie
    d = rs.Distribution.uniform(4)
    g = rs.BoundedFn(np.array([1.0, 0.75, 0.5, 0.5]))
    sel = np.array([True, True, False, False])
    f_vals = np.array([1.0, 0.5, 0.0, 0.0])
    t, target = _best_threshold_shift(g, d, sel, f_vals, +1, 0.5, 0.5)
    assert t == 1.0 == best_threshold_loop(g.values, d.weights, sel, f_vals, +1, 0.5, 0.5)[0]
    assert list(target) == [True, False, False, False]


def test_violation_scan_exact_ties_pick_lowest_level_then_member():
    # two levels of mass 1/2 with opposite residuals; members 2 and 3 are
    # identical, and (level 0.25, member 2), (level 0.25, member 3) and
    # (level 0.75, member 1) all reach |E[1_level f (g - h)]| = 1/8
    d = rs.Distribution.uniform(4)
    g = rs.BoundedFn(np.full(4, 0.5))
    h = rs.BoundedFn(np.array([0.25, 0.25, 0.75, 0.75]))
    fam = rs.explicit_family(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]]
    )
    values, inverse, masses = _level_sets(h, d)
    sums = _level_matrix(fam.matrix, d.weights * (g.values - h.values), inverse, values.size)
    assert _worst_weighted_violation(masses, sums, 0.1, 0.01) == (0, 2, +1, 0.125)
    audit = rs.multicalibration_check(g, h, d, fam, 0.1)
    assert [lvl.witness_index for lvl in audit.levels] == [2, 1]


def test_level_matrix_allocates_only_row_temporaries():
    rng = np.random.default_rng(33)
    m, n, n_levels = 64, 4096, 8
    matrix = rng.uniform(size=(m, n))
    residual = rng.uniform(-1.0, 1.0, size=n)
    inverse = rng.integers(n_levels, size=n)
    tracemalloc.start()
    try:
        _level_matrix(matrix, residual, inverse, n_levels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one reused N-sized product buffer and the (m, L) result; a block of 16
    # rows reduced per np.bincount call would hold 16 * N weights and as
    # many flat indices, 1 MiB here
    assert peak < 4 * n * 8 + m * n_levels * 8


def test_point_sums_match_point_order_oracle():
    rng = np.random.default_rng(31)
    n = 3 * _POINT_BLOCK + 5
    for m in (1, 2, 15, 16, 17, 40):
        g, h, d, members = _level_instance(rng, n, m, 5, False)
        values, inverse, _ = _level_sets(h, d)
        residual = d.weights * (g.values - h.values)
        by_point = np.ascontiguousarray(members.T)
        full = _level_matrix(members, residual, inverse, values.size)
        # a level's points give its _level_matrix column bit for bit
        for j in range(values.size):
            sums = _point_sums(by_point, residual, np.flatnonzero(inverse == j))
            assert sums.tobytes() == full[:, j].tobytes()
        zero_members = np.zeros_like(by_point)
        negative = -np.abs(residual)
        for p in (
            np.sort(rng.choice(n, size=_POINT_BLOCK + 17, replace=False)),
            np.sort(rng.choice(n, size=17, replace=False)),
            np.arange(1),
            np.arange(0),
        ):
            one_level = np.zeros(p.size, dtype=int)
            assert _point_sums(by_point, residual, p).tobytes() == level_sums_by_point(
                members[:, p], residual[p], one_level, 1
            )[:, 0].tobytes()
            # all-zero terms are -0.0 here; summed from 0.0 they give +0.0
            assert _point_sums(zero_members, negative, p).tobytes() == np.zeros(m).tobytes()


def test_point_sums_allocate_only_block_temporaries():
    rng = np.random.default_rng(32)
    m, n, n_points = 256, 4096, 2048
    by_point = rng.uniform(size=(n, m))
    residual = rng.uniform(-1.0, 1.0, size=n)
    points = np.sort(rng.choice(n, size=n_points, replace=False))
    tracemalloc.start()
    try:
        _point_sums(by_point, residual, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the temporaries are per block of points: a block's gathered rows live
    # until the next block's replace them, so two blocks of _POINT_BLOCK * m
    # * 8 bytes at most; a whole (P, m) gather would be P * m * 8 = 4 MiB
    assert peak < 3 * _POINT_BLOCK * m * 8 <= n_points * m * 8 // 4


def _multicalibrate_instance(rng, n, m, flavor):
    """g, weights and members for multicalibrate.  "random" and "two-point"
    (most points weigh 0) draw real g and mixed 0/1 and real members;
    "dyadic" takes 2^(n % 5) points of equal weight, g on quarters and 0/1
    members, so the sums are exact and ties and |sum| / mass = epsilon
    occur at the dyadic epsilons."""
    if flavor == "dyadic":
        n = 1 << (n % 5)
        g = rng.integers(0, 5, size=n) / 4.0
        w = np.full(n, 1.0 / n)
        members = (rng.uniform(size=(m, n)) < 0.5).astype(float)
        return rs.BoundedFn(g), rs.Distribution(w), rs.explicit_family(members.tolist())
    g = rng.choice(rng.uniform(size=3), size=n) if rng.uniform() < 0.5 else rng.uniform(size=n)
    if flavor == "two-point":
        w = np.zeros(n)
        w[rng.integers(n)] += 0.25
        w[rng.integers(n)] += 0.75
    else:
        w = rng.gamma(1.0, size=n) + 1e-9
        w /= w.sum()
    binary = (rng.uniform(size=(m, n)) < 0.5).astype(float)
    real = np.where(rng.uniform(size=(m, n)) < 0.3, 0.0, rng.uniform(size=(m, n)))
    members = np.where(rng.uniform(size=(m, 1)) < 0.5, binary, real)
    return rs.BoundedFn(g), rs.Distribution(w), rs.explicit_family(members.tolist())


def test_multicalibrate_carried_levels_match_full_rescan():
    st = hyp.strategies
    kinds_seen = set()

    @hyp.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hyp.given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        m=st.sampled_from([1, 3, 17]),
        flavor=st.sampled_from(["random", "two-point", "dyadic"]),
        epsilon=st.sampled_from([0.125, 0.2, 0.25, 0.3]),
    )
    def check(seed, n, m, flavor, epsilon):
        rng = np.random.default_rng(seed)
        g, d, fam = _multicalibrate_instance(rng, n, m, flavor)
        h, trace = rs.multicalibrate(g, d, fam, epsilon)
        h_rescan, trace_rescan, kinds = multicalibrate_rescan(g, d, fam, epsilon)
        assert trace.to_jsonl() == trace_rescan.to_jsonl()
        assert h.values.tobytes() == h_rescan.values.tobytes()
        kinds_seen.update(kinds)

    check()
    assert kinds_seen == {"onto-new", "onto-existing", "emptied", "zero-mass"}
