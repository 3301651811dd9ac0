import json
import tracemalloc

import numpy as np
import pytest

import regsim as rs
from conftest import random_distribution

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


def test_tv_identity(uniform2):
    assert rs.tv_distance(uniform2, uniform2) == 0.0


def test_tv_half_l1():
    p = rs.Distribution(np.array([0.5, 0.5]))
    q = rs.Distribution(np.array([0.75, 0.25]))
    assert rs.tv_distance(p, q) == pytest.approx(0.25, abs=STRUCT)


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


def test_potential_matches_definition():
    rng = np.random.default_rng(11)
    d = random_distribution(rng, 6)
    g = rs.BoundedFn(rng.uniform(size=6))
    h = rs.BoundedFn(rng.uniform(size=6))
    direct = sum(w * (a - b) ** 2 for w, a, b in zip(d.weights, g.values, h.values))
    assert rs.potential(g, h, d) == pytest.approx(direct, abs=STRUCT)
