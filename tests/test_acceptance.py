"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else: 1e-12 for
structural agreement between independent code paths, 1e-10 for derived
inequalities.
"""

import json
import math
import time

import numpy as np
import pytest

import regsim as rs
from conftest import nested_ladder, random_bounded, random_distribution, random_family
from gap_golden import GOLDEN_PATH, canonical_lines, make_gap_diff
from oracles import brute_kfold_tv, calibration_error_extreme_points, counts_of
from regsim.cli import main as cli_main
from regsim.demos import demo_names

TOL = 1e-10
EXACT = 1e-12


def test_criterion_1_iteration_bound_and_potential_drops():
    rng = np.random.default_rng(101)
    eps_grid = [0.05, 0.1, 0.2, 0.4]
    started = time.perf_counter()
    runs = 0
    for i in range(200):
        eps = eps_grid[i % len(eps_grid)]
        n = int(rng.integers(2, 65))
        fam = random_family(rng, n, int(rng.integers(1, 257)))
        g = random_bounded(rng, n)
        dist = random_distribution(rng, n)
        h, trace = rs.multiaccuracy_boost(g, dist, fam, rs.BoostParams(epsilon=eps))
        assert trace.update_count <= math.ceil(1.0 / (3.0 * eps * eps)) + 1
        for r in trace.records:
            assert r.phi_before - r.phi_after >= 0.75 * eps * eps - TOL
        runs += 1
    elapsed = time.perf_counter() - started
    assert runs == 200
    assert elapsed < 60.0, f"criterion 1 exceeded budget: {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: iteration bound on {runs} instances in {elapsed:.1f}s")


def test_criterion_2_audit_exactness():
    rng = np.random.default_rng(102)
    checked = 0
    for _ in range(25):
        n = int(rng.integers(2, 11))  # <= 10 points -> <= 12 value levels
        eps = float(rng.choice([0.1, 0.2, 0.3]))
        gamma = float(rng.choice([0.05, 0.1])) * eps / 0.1 * 0.5
        gamma = min(gamma, eps)
        g = random_bounded(rng, n)
        dist = random_distribution(rng, n)
        fam = random_family(rng, n, int(rng.integers(1, 9)))

        h1, _ = rs.multiaccuracy_boost(g, dist, fam, rs.BoostParams(epsilon=eps))
        assert rs.best_response(fam, g, h1, dist).correlation <= eps + TOL

        h2, _ = rs.calibrated_multiaccuracy(
            g, dist, fam, rs.BoostParams(epsilon=eps, gamma=gamma)
        )
        assert rs.best_response(fam, g, h2, dist).correlation <= eps + TOL
        assert rs.calibration_error(g, h2, dist) <= gamma + TOL

        h3, _ = rs.multicalibrate(g, dist, fam, eps)
        assert rs.multicalibration_check(g, h3, dist, fam, eps).passes

        # independent code path: extreme-point enumeration of the calibration sup
        for h in (h1, h2, h3):
            levels = np.unique(h.values)
            assert levels.size <= 12
            closed = rs.calibration_error(g, h, dist)
            brute = calibration_error_extreme_points(
                list(g.values), list(h.values), list(dist.weights)
            )
            assert abs(closed - brute) <= EXACT
            checked += 1
    print(f"\nACCEPTANCE 2 PASS: {checked} constructor outputs re-audited exactly")


def test_criterion_3_supersimulator_regularity_above_level():
    rng = np.random.default_rng(103)
    started = time.perf_counter()
    for i in range(100):
        eps = float(rng.choice([0.2, 0.3, 0.4]))
        shift = 1 if i % 2 == 0 else 2
        n = int(rng.integers(2, 17))
        depth = max(6, shift * (rs.updates_bound(eps) + 1) + 1)
        ladder = nested_ladder(rng, n, int(rng.integers(2, 6)), pad_to=depth)
        growth = rs.GrowthMap.shift(ladder, shift)
        g = random_bounded(rng, n)
        dist = random_distribution(rng, n)
        res = rs.supersimulator_expanding(g, dist, ladder, growth, eps)
        assert ladder.depth >= 6
        ma = rs.best_response(ladder[res.fooled_level], g, res.h, dist).correlation
        assert ma <= eps + TOL
        assert res.fooled_level == rs.apply_growth(growth, res.level)
        bound_index = math.floor(1.0 / (3.0 * eps * eps))
        assert res.updates <= bound_index
        formal = res.recurrence.labels[min(bound_index, len(res.recurrence.labels) - 1)]
        assert res.label.le(formal)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 3 exceeded budget: {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 PASS: 100 expanding runs audited in {elapsed:.1f}s")


def test_criterion_4_shrinking_similarity_and_corollary():
    rng = np.random.default_rng(104)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        alpha = float(rng.choice([0.15, 0.25, 0.4]))
        eps_val = float(rng.choice([0.05, 0.1]))
        shift = int(rng.choice([1, 2]))
        pad = shift * (math.floor(1 / alpha) + 2) + 2
        ladder = nested_ladder(rng, n, int(rng.integers(2, 5)), pad_to=pad)
        growth = rs.GrowthMap.shift(ladder, shift)
        sched = rs.ErrorSchedule.constant(eps_val)
        g = random_bounded(rng, n)
        dist = random_distribution(rng, n)
        pair = rs.supersimulator_shrinking(g, dist, ladder, growth, sched, alpha)
        # similarity bound with the explicit constant 4
        assert pair.similarity <= pair.phi_gap + 4.0 * pair.eps_at_s + TOL
        # exact L2/potential decomposition
        diff = pair.h.values - pair.h_prime.values
        cross = float(np.dot(dist.weights, diff * (g.values - pair.h_prime.values)))
        assert abs(pair.similarity - (pair.phi_gap + 2.0 * cross)) <= TOL
        # Markov corollary with the explicit constant 2, measured from scratch
        measured = rs.best_response(ladder[pair.level_s_prime], g, pair.h, dist).correlation
        assert measured <= pair.eps_at_s + 2.0 * pair.similarity ** (1.0 / 3.0) + TOL
    print("\nACCEPTANCE 4 PASS: 50 shrinking runs satisfy similarity, identity, corollary")


def test_criterion_5_two_proxy_end_to_end():
    rng = np.random.default_rng(105)
    for i in range(100):
        n = int(rng.integers(2, 6))
        eps = float(rng.choice([0.1, 0.2]))
        gamma = eps * eps / 20.0
        k = int(rng.integers(1, 5))
        d0 = random_distribution(rng, n)
        d1 = random_distribution(rng, n)
        fam = random_family(rng, n, int(rng.integers(1, 9)))
        inst = rs.build_mixture(d0, d1, 0.5)
        h, _ = rs.calibrated_multiaccuracy(
            inst.g, inst.d_x, fam, rs.BoostParams(epsilon=eps, gamma=gamma)
        )
        report = rs.verify_two_proxy(inst, h, fam, eps, gamma, k)
        assert report.passed, (i, report.failed_names())
        assert report.inequality("indistinguishability-proxy0").rhs == 2 * eps + 5 * gamma
        assert report.inequality("advantage-at-least-proxy-tv").lhs == pytest.approx(
            report.audits["tv_kfold_proxies"] - 14 * k * gamma, abs=EXACT
        )
        assert report.inequality("tv-tilde-hat-0").lhs <= 5 * gamma + TOL
        assert report.inequality("hybrid-step-0").lhs <= 2 * gamma + TOL
        assert report.inequality("hybrid-step-1").lhs <= 2 * gamma + TOL
    print("\nACCEPTANCE 5 PASS: 100 balanced-mixture verifications, slack never above budget")


def test_criterion_6_single_proxy_end_to_end():
    rng = np.random.default_rng(106)
    for i in range(100):
        n = int(rng.integers(2, 6))
        eps = float(rng.choice([0.1, 0.2]))
        gamma = eps ** 3 / 20.0
        assert gamma < eps / 2.0
        k = int(rng.integers(1, 5))
        d0 = random_distribution(rng, n)
        d1 = random_distribution(rng, n)
        fam = random_family(rng, n, int(rng.integers(1, 9)))
        inst = rs.build_mixture(d0, d1, eps)
        h, _ = rs.calibrated_multiaccuracy(
            inst.g, inst.d_x, fam, rs.BoostParams(epsilon=eps * eps, gamma=gamma)
        )
        report = rs.verify_single_proxy(inst, h, fam, eps, gamma, k)
        assert report.passed, (i, report.failed_names())
        assert report.inequality("indistinguishability-proxy1").rhs == pytest.approx(
            eps + 2 * gamma / eps ** 2, abs=EXACT
        )
        slack = (2 * gamma / eps ** 2 + gamma / eps + eps) * k
        assert report.inequality("advantage-at-least-proxy-tv").lhs == pytest.approx(
            report.audits["tv_kfold_d0_proxy"] - slack, abs=EXACT
        )
    print("\nACCEPTANCE 6 PASS: 100 tilted-mixture verifications at both priors")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(107)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 6))
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        exact = rs.kfold_tv(p, q, k)
        brute = brute_kfold_tv(p.weights, q.weights, k)
        assert abs(exact - brute) <= EXACT
        h = rs.BoundedFn(rng.uniform(size=n))
        test = rs.ProductTest(h, k, "balanced")
        lib = rs.kfold_expectation(test, p, k)
        brute_e = 0.0
        import itertools

        for tup in itertools.product(range(n), repeat=k):
            w = 1.0
            for z in tup:
                w *= p.weights[z]
            brute_e += w * float(test.on_counts(counts_of(tup, n)[None, :])[0])
        assert abs(lib - brute_e) <= EXACT
        d = rs.tv_distance(p, q)
        assert 1.0 - (1.0 - d) ** k <= k * d + TOL
        assert exact <= 1.0 - (1.0 - d) ** k + TOL
    print("\nACCEPTANCE 7 PASS: 50 pairs agree with brute force within 1e-12")


def test_criterion_8_gap_closure_golden_diff():
    diff = make_gap_diff()
    assert GOLDEN_PATH.exists(), "golden file missing; run python -m gap_golden in tests/"
    golden = GOLDEN_PATH.read_text()
    assert diff == golden
    # the two reports genuinely differ in family structure, not just numbers
    assert '"distinct_families": true' in diff
    assert '"distinct_families": false' in diff
    print("\nACCEPTANCE 8 PASS: gap-closure report diff matches the committed golden file")


def test_criterion_9_demo_determinism(tmp_path):
    for name in demo_names():
        texts = []
        for attempt in range(2):
            out = tmp_path / f"{name}-{attempt}.json"
            code = cli_main(["demo", name, "--out", str(out)])
            assert code == 0, name
            report = json.loads(out.read_text())
            texts.append("\n".join(canonical_lines(report)))
        assert texts[0] == texts[1], f"demo {name} is not deterministic"
    print(f"\nACCEPTANCE 9 PASS: {len(demo_names())} demos byte-identical modulo wall time")
