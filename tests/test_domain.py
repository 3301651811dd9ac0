import json
import tracemalloc

import numpy as np
import pytest

import regsim as rs
from conftest import random_distribution
from oracles import round_to_grid_expression
from regsim.runner import run_config

STRUCT = 1e-12


def test_expectation_normalization(uniform2):
    f = rs.BoundedFn(np.array([1.0, 1.0]))
    assert rs.expectation(f, uniform2) == 1.0


def test_expectation_direct_sum(uniform2):
    assert rs.expectation(rs.BoundedFn(np.array([1.0, 0.0])), uniform2) == 0.5


def test_expectation_hand_sum():
    d = rs.Distribution(np.array([0.45, 0.55]))
    f = rs.BoundedFn(np.array([0.25, 0.75]))
    assert rs.expectation(f, d) == pytest.approx(0.525, abs=STRUCT)


def test_expectation_domain_mismatch(uniform2):
    with pytest.raises(rs.DomainMismatchError):
        rs.expectation(rs.BoundedFn(np.array([1.0, 0.0, 0.0])), uniform2)


def test_correlation_zero_residual(uniform2, g10):
    f = np.array([1.0, -1.0])
    assert rs.correlation(f, g10, g10, uniform2) == 0.0


def test_correlation_hand_value(uniform2, g10):
    h = rs.BoundedFn(np.array([0.5, 0.5]))
    assert rs.correlation(np.array([0.0, 1.0]), g10, h, uniform2) == pytest.approx(-0.25, abs=STRUCT)


def test_correlation_cancellation(uniform2, g10):
    h = rs.BoundedFn(np.array([0.5, 0.5]))
    assert rs.correlation(np.array([1.0, 1.0]), g10, h, uniform2) == pytest.approx(0.0, abs=STRUCT)


def test_correlation_rejects_unsigned_range(uniform2, g10):
    with pytest.raises(rs.ValidationError):
        rs.correlation(np.array([2.0, 0.0]), g10, g10, uniform2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_vectors_must_be_finite(uniform2, g10, bad):
    with pytest.raises(rs.ValidationError, match="finite"):
        rs.expectation(np.array([bad, 0.0]), uniform2)
    with pytest.raises(rs.ValidationError, match="finite"):
        rs.correlation(np.array([bad, 0.0]), g10, g10, uniform2)


def test_tv_identity(uniform2):
    assert rs.tv_distance(uniform2, uniform2) == 0.0


def test_tv_half_l1():
    p = rs.Distribution(np.array([0.5, 0.5]))
    q = rs.Distribution(np.array([0.75, 0.25]))
    assert rs.tv_distance(p, q) == pytest.approx(0.25, abs=STRUCT)
    # raw nonnegative vectors are measures too
    assert rs.tv_distance(p, np.array([0.5, 0.25])) == 0.125
    for bad in ([1.5, -0.5], [np.nan, 0.5], [np.inf, 0.0]):
        with pytest.raises(rs.ValidationError, match="finite and nonnegative"):
            rs.tv_distance(p, np.array(bad))
    with pytest.raises(rs.DomainMismatchError):
        rs.tv_distance(p, rs.Distribution.uniform(3))


def test_tv_disjoint_supports():
    p = rs.Distribution(np.array([1.0, 0.0]))
    q = rs.Distribution(np.array([0.0, 1.0]))
    assert rs.tv_distance(p, q) == 1.0


def test_tv_metric_properties_random_triples():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        p, q, r = (random_distribution(rng, n) for _ in range(3))
        dpq = rs.tv_distance(p, q)
        assert dpq >= 0.0
        assert dpq == pytest.approx(rs.tv_distance(q, p), abs=STRUCT)
        assert dpq <= rs.tv_distance(p, r) + rs.tv_distance(r, q) + STRUCT
        assert rs.tv_distance(p, p) <= STRUCT


def test_distribution_validation():
    with pytest.raises(rs.ValidationError):
        rs.Distribution(np.array([0.5, 0.6]))
    with pytest.raises(rs.ValidationError):
        rs.Distribution(np.array([-0.1, 1.1]))


def test_bounded_fn_rejects_out_of_range():
    with pytest.raises(rs.ValidationError):
        rs.BoundedFn(np.array([0.5, 1.2]))
    with pytest.raises(rs.ValidationError):
        rs.BoundedFn(np.array([-0.01, 0.5]))


NAN, INF = float("nan"), float("inf")
FN_MESSAGES = {
    "nan": ([0.5, NAN], "function values contains non-finite entries"),
    "+inf": ([0.5, INF], "function values contains non-finite entries"),
    "-inf": ([-INF, 0.5], "function values contains non-finite entries"),
    "below 0": ([-0.25, 0.5], "function values must lie in [0, 1]"),
    "above 1": ([0.5, 1.5], "function values must lie in [0, 1]"),
    "empty": ([], "function values must be nonempty"),
    "2-D": ([[0.5, 0.5]], "function values must be a one-dimensional vector, got shape (1, 2)"),
}
DIST_MESSAGES = {
    "nan": ([0.5, NAN], "distribution weights contains non-finite entries"),
    "+inf": ([INF, 0.5], "distribution weights contains non-finite entries"),
    "-inf": ([-INF, 0.5], "distribution weights contains non-finite entries"),
    "below 0": ([-0.25, 1.25], "distribution weights must be nonnegative"),
    "empty": ([], "distribution weights must be nonempty"),
    "2-D": ([[0.5, 0.5]], "distribution weights must be a one-dimensional vector, got shape (1, 2)"),
    "sum": ([0.5, 0.4], "distribution weights sum to 0.9, not 1 within 1e-12"),
}
# the config layer refuses an empty or nested list before the value type
CONFIG_REFUSALS = {"empty": "expected a nonempty list", "2-D": "expected a number, got [0.5, 0.5]"}
# a valid boost run on two points; each case replaces its target or weights
TWO_POINT_BOOST = {
    "domain": {"size": 2},
    "algorithm": "boost",
    "params": {"epsilon": 0.1},
    "family": {"builder": "explicit", "members": [[0.0, 1.0]]},
    "target": [1.0, 0.0],
    "distributions": {"d": [0.5, 0.5]},
}


@pytest.mark.parametrize("case", FN_MESSAGES)
def test_bounded_fn_rejections_keep_their_messages(case):
    values, message = FN_MESSAGES[case]
    with pytest.raises(rs.ValidationError) as err:
        rs.BoundedFn(np.array(values))
    assert str(err.value) == message
    assert run_config(TWO_POINT_BOOST).exit_code == 0
    outcome = run_config({**TWO_POINT_BOOST, "target": values})
    assert outcome.exit_code == 1
    assert outcome.report["error"]["problems"] == [
        f"config.target: {CONFIG_REFUSALS.get(case, message)}"
    ]


@pytest.mark.parametrize("case", DIST_MESSAGES)
def test_distribution_rejections_keep_their_messages(case):
    weights, message = DIST_MESSAGES[case]
    with pytest.raises(rs.ValidationError) as err:
        rs.Distribution(np.array(weights))
    assert str(err.value) == message
    outcome = run_config({**TWO_POINT_BOOST, "distributions": {"d": weights}})
    assert outcome.exit_code == 1
    assert outcome.report["error"]["problems"] == [
        f"config.distributions.d: {CONFIG_REFUSALS.get(case, message)}"
    ]


def test_value_checks_keep_negative_zero_and_copy():
    raw = np.array([-0.0, 1.0, 0.25])
    f, d = rs.BoundedFn(raw), rs.Distribution(np.array([-0.0, 0.75, 0.25]))
    assert np.signbit(f.values[0]) and np.signbit(d.weights[0])
    raw[1] = 0.5
    assert f.values[1] == 1.0 and not f.values.flags.writeable


def test_domain_invariants():
    with pytest.raises(rs.ValidationError):
        rs.FiniteDomain(size=0)
    with pytest.raises(rs.ValidationError):
        rs.FiniteDomain(size=5, bit_width=2)
    dom = rs.FiniteDomain(size=4, bit_width=2)
    assert dom.to_json() == {"size": 4, "bit_width": 2}
    assert rs.FiniteDomain.from_json({"size": 3}) == rs.FiniteDomain(size=3)


def test_domain_fit_check_never_builds_two_to_the_bit_width():
    # the check compared size with 2 ** bit_width: 8 MiB of integer at 2^26
    # bits, and MemoryError from run_config at 10^12
    tracemalloc.start()
    try:
        assert rs.FiniteDomain(size=2, bit_width=2**26).bit_width == 2**26
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert rs.FiniteDomain(size=1, bit_width=0).size == 1
    assert rs.FiniteDomain(size=2**40, bit_width=40).size == 2**40
    with pytest.raises(rs.ValidationError):
        rs.FiniteDomain(size=2**40 + 1, bit_width=40)
    with pytest.raises(rs.ValidationError):
        rs.FiniteDomain(size=2, bit_width=0)


def test_json_round_trip_vectors():
    d = rs.Distribution(np.array([0.25, 0.75]))
    f = rs.BoundedFn(np.array([0.1, 0.9]))
    assert json.loads(json.dumps(d.to_json())) == [0.25, 0.75]
    assert json.loads(json.dumps(f.to_json())) == [0.1, 0.9]


def test_round_to_grid_half_even_and_clip():
    vals = rs.round_to_grid(np.array([0.5]), 0.2)
    assert vals[0] == pytest.approx(0.4, abs=STRUCT)  # 2.5 rounds to even 2
    assert rs.round_to_grid(np.array([0.999999]), 0.2)[0] == 1.0
    assert np.all(rs.round_to_grid(np.array([1.0]), 0.3) <= 1.0)


def test_round_to_grid_matches_the_expression_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        values = rng.uniform(-0.2, 1.2, size=n)
        # exact grid points, half-way points and tiny negatives (which round
        # to -0.0 and are clipped as they are)
        values[rng.uniform(size=n) < 0.2] = -1e-300
        step = float(rng.choice([0.1, 0.125, 0.3, 1e-10]))
        values[rng.uniform(size=n) < 0.2] = step * (rng.integers(0, 8, size=n) + 0.5)[0]
        frozen = values.copy()
        out = rs.round_to_grid(values, step)
        assert out.tobytes() == round_to_grid_expression(values, step).tobytes()
        assert values.tobytes() == frozen.tobytes()
    assert rs.round_to_grid([0.26, 1.0], 0.5).tolist() == [0.5, 1.0]


def test_potential_matches_definition():
    rng = np.random.default_rng(11)
    d = random_distribution(rng, 6)
    g = rs.BoundedFn(rng.uniform(size=6))
    h = rs.BoundedFn(rng.uniform(size=6))
    direct = sum(w * (a - b) ** 2 for w, a, b in zip(d.weights, g.values, h.values))
    assert rs.potential(g, h, d) == pytest.approx(direct, abs=STRUCT)
