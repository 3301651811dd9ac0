import functools
import itertools

import hypothesis as hyp
import numpy as np
import pytest

import regsim as rs
from conftest import random_distribution, random_family
from oracles import brute_hybrid_expectations, brute_lifted_gaps, counts_of

TOL = 1e-10
EXACT = 1e-12


def disjoint_pair():
    return rs.Distribution(np.array([1.0, 0.0])), rs.Distribution(np.array([0.0, 1.0]))


def two_member_family():
    return rs.explicit_family([[1.0, 1.0], [0.0, 1.0]], name="const1+ind1")


# -- mixtures ----------------------------------------------------------------


def test_build_mixture_disjoint():
    d0, d1 = disjoint_pair()
    inst = rs.build_mixture(d0, d1, 0.5)
    assert list(inst.d_x.weights) == [0.5, 0.5]
    assert list(inst.g.values) == [0.0, 1.0]


def test_build_mixture_equal_sources_gives_constant_prior():
    d = rs.Distribution(np.array([0.3, 0.7]))
    inst = rs.build_mixture(d, d, 0.25)
    assert np.allclose(inst.g.values, 0.25, atol=EXACT)


def test_build_mixture_tilted_hand_value():
    d0 = rs.Distribution(np.array([0.5, 0.5]))
    d1 = rs.Distribution(np.array([0.0, 1.0]))
    inst = rs.build_mixture(d0, d1, 0.1)
    assert np.allclose(inst.d_x.weights, [0.45, 0.55], atol=EXACT)
    assert inst.g.values[0] == 0.0
    assert inst.g.values[1] == pytest.approx(2.0 / 11.0, abs=EXACT)


def test_mixture_views_agree_pointwise():
    rng = np.random.default_rng(40)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        d0, d1 = random_distribution(rng, n), random_distribution(rng, n)
        prior = float(rng.uniform(0.05, 0.95))
        inst = rs.build_mixture(d0, d1, prior)
        assert np.max(np.abs(inst.g.values * inst.d_x.weights - prior * d1.weights)) <= EXACT


def test_mixture_zero_mass_convention():
    d0 = rs.Distribution(np.array([1.0, 0.0, 0.0]))
    d1 = rs.Distribution(np.array([0.0, 1.0, 0.0]))
    inst = rs.build_mixture(d0, d1, 0.3)
    assert inst.g.values[2] == 0.3  # zero-mass point pinned to the prior


# -- proxies ------------------------------------------------------------------


def test_proxies_of_exact_simulator_reproduce_sources():
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        d0, d1 = random_distribution(rng, n), random_distribution(rng, n)
        prior = float(rng.uniform(0.2, 0.8))
        inst = rs.build_mixture(d0, d1, prior)
        proxies = rs.build_proxies(inst, inst.g)
        assert proxies.p == pytest.approx(prior, abs=1e-12)
        assert np.allclose(proxies.tilde1.weights, d1.weights, atol=1e-12)
        assert np.allclose(proxies.tilde0.weights, d0.weights, atol=1e-12)


def test_proxies_bayes_by_hand():
    d0 = rs.Distribution(np.array([0.75, 0.25]))
    d1 = rs.Distribution(np.array([0.25, 0.75]))
    inst = rs.build_mixture(d0, d1, 0.5)  # mixture is uniform
    h = rs.BoundedFn(np.array([0.25, 0.75]))
    proxies = rs.build_proxies(inst, h)
    assert proxies.p == pytest.approx(0.5, abs=EXACT)
    assert np.allclose(proxies.tilde1.weights, [0.25, 0.75], atol=EXACT)
    assert np.allclose(proxies.tilde0.weights, [0.75, 0.25], atol=EXACT)


def test_proxies_uninformative_simulator():
    d0, d1 = disjoint_pair()
    inst = rs.build_mixture(d0, d1, 0.5)
    h = rs.BoundedFn(np.array([0.5, 0.5]))
    proxies = rs.build_proxies(inst, h)
    assert np.allclose(proxies.tilde0.weights, inst.d_x.weights, atol=EXACT)
    assert np.allclose(proxies.tilde1.weights, inst.d_x.weights, atol=EXACT)


def test_proxies_remix_to_mixture():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        inst = rs.build_mixture(
            random_distribution(rng, n), random_distribution(rng, n), float(rng.uniform(0.1, 0.9))
        )
        h = rs.BoundedFn(rng.uniform(0.05, 0.95, size=n))
        proxies = rs.build_proxies(inst, h)
        remixed = proxies.p * proxies.tilde1.weights + (1 - proxies.p) * proxies.tilde0.weights
        assert np.max(np.abs(remixed - inst.d_x.weights)) <= EXACT


def test_proxies_degenerate_simulator_rejected():
    d0, d1 = disjoint_pair()
    inst = rs.build_mixture(d0, d1, 0.5)
    with pytest.raises(rs.ValidationError, match="proxy undefined"):
        rs.build_proxies(inst, rs.BoundedFn(np.array([0.0, 0.0])))


# -- product tests -------------------------------------------------------------


def test_product_test_k1_is_half_threshold():
    h = rs.BoundedFn(np.array([0.3, 0.5, 0.8]))
    test = rs.product_distinguisher(h, 1, "balanced")
    vals = test.on_counts(np.eye(3, dtype=np.int64))
    assert list(vals) == [0.0, 0.0, 1.0]  # ties at h = 1/2 resolve to 0


def test_product_test_tie_example():
    h = rs.BoundedFn(np.array([0.25, 0.75]))
    test = rs.product_distinguisher(h, 2, "balanced")
    counts = np.array([[0, 2], [2, 0], [1, 1]], dtype=np.int64)
    assert list(test.on_counts(counts)) == [1.0, 0.0, 0.0]
    assert list(test.tie_on_counts(counts)) == [0.0, 0.0, 1.0]


def test_product_test_tilted_example():
    h = rs.BoundedFn(np.array([0.0, 2.0 / 11.0]))
    test = rs.product_distinguisher(h, 1, "tilted", epsilon=0.1)
    vals = test.on_counts(np.eye(2, dtype=np.int64))
    assert list(vals) == [0.0, 1.0]


def test_product_test_extreme_values():
    h = rs.BoundedFn(np.array([0.0, 1.0]))
    test = rs.product_distinguisher(h, 2, "balanced")
    counts = np.array([[2, 0], [0, 2], [1, 1]], dtype=np.int64)
    # all-zero h: lhs -inf vs rhs 0 -> 0; all-one: lhs 0 vs -inf -> 1; mixed: tie of -inf
    assert list(test.on_counts(counts)) == [0.0, 1.0, 0.0]


def test_optimal_test_for_hat_pair_brute_force():
    rng = np.random.default_rng(43)
    for _ in range(12):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 5))
        inst = rs.build_mixture(
            random_distribution(rng, n), random_distribution(rng, n), 0.5
        )
        h = rs.BoundedFn(rng.uniform(0.05, 0.95, size=n))
        proxies = rs.build_proxies(inst, h)
        test = rs.product_distinguisher(h, k, "balanced")
        adv = rs.test_advantage(test, proxies.hat0, proxies.hat1, k)
        tv_raw = rs.kfold_tv(proxies.hat0, proxies.hat1, k)
        mass1 = float(proxies.hat1.sum()) ** k
        mass0 = float(proxies.hat0.sum()) ** k
        # exact: advantage of the strict test is the positive-part sum
        brute = 0.0
        for tup in itertools.product(range(n), repeat=k):
            a = np.prod([proxies.hat1[z] for z in tup])
            b = np.prod([proxies.hat0[z] for z in tup])
            val = float(test.on_counts(counts_of(tup, n)[None, :])[0])
            brute += (a - b) * val
        assert adv == pytest.approx(abs(brute), abs=1e-12)
        assert abs(adv - tv_raw) <= 0.5 * abs(mass1 - mass0) + 1e-12


# -- two-proxy verification -----------------------------------------------------


def run_two_proxy(rng, n, eps, k, prior_family=None):
    d0, d1 = random_distribution(rng, n), random_distribution(rng, n)
    family = prior_family or random_family(rng, n, 6)
    gamma = eps * eps / 20.0
    inst = rs.build_mixture(d0, d1, 0.5)
    h, _ = rs.calibrated_multiaccuracy(
        inst.g, inst.d_x, family, rs.BoostParams(epsilon=eps, gamma=gamma)
    )
    return rs.verify_two_proxy(inst, h, family, eps, gamma, k)


def test_two_proxy_exact_simulator_collapses_everything():
    d0 = rs.Distribution(np.array([0.6, 0.4]))
    d1 = rs.Distribution(np.array([0.2, 0.8]))
    inst = rs.build_mixture(d0, d1, 0.5)
    k = 3
    report = rs.verify_two_proxy(inst, inst.g, two_member_family(), 1e-9, 1e-9, k)
    assert report.passed
    assert report.inequality("indistinguishability-proxy0").lhs <= EXACT
    assert report.inequality("indistinguishability-proxy1").lhs <= EXACT
    assert report.audits["p"] == pytest.approx(0.5, abs=EXACT)
    assert report.audits["advantage"] == pytest.approx(
        rs.kfold_tv(d0, d1, k), abs=EXACT
    )
    assert report.inequality("hybrid-step-0").lhs <= EXACT
    assert report.inequality("hybrid-step-1").lhs <= EXACT


def test_two_proxy_identical_sources():
    d = rs.Distribution(np.array([0.4, 0.6]))
    inst = rs.build_mixture(d, d, 0.5)
    fam = two_member_family()
    h, _ = rs.calibrated_multiaccuracy(
        inst.g, inst.d_x, fam, rs.BoostParams(epsilon=0.05, gamma=0.001)
    )
    report = rs.verify_two_proxy(inst, h, fam, 0.05, 0.001, 2)
    assert report.passed
    assert report.audits["advantage"] <= TOL
    assert report.audits["tv_kfold_proxies"] <= 0.05


def test_two_proxy_disjoint_end_to_end():
    d0, d1 = disjoint_pair()
    inst = rs.build_mixture(d0, d1, 0.5)
    fam = two_member_family()
    h, _ = rs.calibrated_multiaccuracy(
        inst.g, inst.d_x, fam, rs.BoostParams(epsilon=0.05, gamma=0.05)
    )
    report = rs.verify_two_proxy(inst, h, fam, 0.05, 0.05, 3)
    assert report.passed, report.failed_names()


def test_two_proxy_random_instances():
    rng = np.random.default_rng(44)
    for _ in range(10):
        report = run_two_proxy(
            rng, int(rng.integers(2, 5)), float(rng.choice([0.1, 0.2])), int(rng.integers(1, 5))
        )
        assert report.passed, report.failed_names()


def test_two_proxy_hypothesis_gate():
    d0, d1 = disjoint_pair()
    inst = rs.build_mixture(d0, d1, 0.5)
    bad_h = rs.BoundedFn(np.array([0.9, 0.1]))  # anti-correlated with g
    with pytest.raises(rs.ValidationError, match="regularity"):
        rs.verify_two_proxy(inst, bad_h, two_member_family(), 0.05, 0.05, 2)
    with pytest.raises(rs.ValidationError, match="prior 1/2"):
        rs.verify_two_proxy(rs.build_mixture(d0, d1, 0.3), inst.g, two_member_family(), 0.05, 0.05, 2)


def test_hybrid_bound_check_examples():
    d0 = rs.Distribution(np.array([0.6, 0.4]))
    d1 = rs.Distribution(np.array([0.2, 0.8]))
    inst = rs.build_mixture(d0, d1, 0.5)
    # exact simulator: hats equal the sources, every swap is free
    proxies = rs.build_proxies(inst, inst.g)
    assert rs.hybrid_bound_check(inst.g, d0, proxies.hat0, 3) <= EXACT
    # k = 1 is the plain expectation gap
    h = rs.BoundedFn(np.array([0.4, 0.7]))
    proxies_h = rs.build_proxies(inst, h)
    test = rs.product_distinguisher(h, 1, "balanced")
    gap = rs.hybrid_bound_check(h, d1, proxies_h.hat1, 1, test=test)
    direct = abs(
        rs.expectation(rs.BoundedFn(test.on_counts(np.eye(2, dtype=np.int64))), d1)
        - float(np.dot(proxies_h.hat1, test.on_counts(np.eye(2, dtype=np.int64))))
    )
    assert gap == pytest.approx(direct, abs=EXACT)
    # k = 3 with a calibrated simulator (the hypothesis the bound needs):
    # every swap is controlled by twice the calibration target
    gamma = 0.02
    fam = two_member_family()
    hc, _ = rs.calibrated_multiaccuracy(
        inst.g, inst.d_x, fam, rs.BoostParams(epsilon=0.1, gamma=gamma)
    )
    proxies_c = rs.build_proxies(inst, hc)
    test3 = rs.product_distinguisher(hc, 3, "balanced")
    for b, hat in ((d0, proxies_c.hat0), (d1, proxies_c.hat1)):
        assert rs.hybrid_bound_check(hc, b, hat, 3, test=test3) <= 2 * gamma + TOL


def test_hybrid_bound_check_matches_tuple_enumeration():
    # raw hat vectors whose mass is not 1, h with repeated levels, both kinds
    rng = np.random.default_rng(47)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        dist = random_distribution(rng, n)
        hat = rng.uniform(0.0, 1.0, size=n) * rng.uniform(0.5, 1.5) / n
        h = rs.BoundedFn(rng.choice([0.05, 0.1, 0.3, 0.5, 0.8, 1.0], size=n))
        if rng.uniform() < 0.5:
            test = rs.product_distinguisher(h, k, "balanced")
        else:
            test = rs.product_distinguisher(h, k, "tilted", epsilon=0.1)
        brute = brute_hybrid_expectations(
            lambda tup: float(test.on_counts(counts_of(tup, n)[None, :])[0]),
            dist.weights, hat, k,
        )
        expected = max(abs(brute[j] - brute[j + 1]) for j in range(k))
        gap = rs.hybrid_bound_check(h, dist, hat, k, test=test)
        assert gap == pytest.approx(expected, abs=1e-12)


# -- single-proxy verification ---------------------------------------------------


def test_single_proxy_exact_simulator():
    d0 = rs.Distribution(np.array([0.5, 0.5]))
    d1 = rs.Distribution(np.array([0.0, 1.0]))
    eps = 0.2
    inst = rs.build_mixture(d0, d1, eps)
    report = rs.verify_single_proxy(inst, inst.g, two_member_family(), eps, 1e-9, 2)
    assert report.passed, report.failed_names()
    assert report.inequality("indistinguishability-proxy1").lhs <= eps + EXACT
    assert report.audits["p"] == pytest.approx(eps, abs=EXACT)


def test_single_proxy_identical_sources():
    d = rs.Distribution(np.array([0.4, 0.6]))
    eps = 0.2
    inst = rs.build_mixture(d, d, eps)
    fam = two_member_family()
    h, _ = rs.calibrated_multiaccuracy(
        inst.g, inst.d_x, fam, rs.BoostParams(epsilon=eps * eps, gamma=eps ** 3 / 20)
    )
    report = rs.verify_single_proxy(inst, h, fam, eps, eps ** 3 / 20, 2)
    assert report.passed
    assert report.audits["advantage"] <= 2 * eps


def test_single_proxy_end_to_end():
    d0 = rs.Distribution(np.array([0.5, 0.5]))
    d1 = rs.Distribution(np.array([0.0, 1.0]))
    eps, gamma, k = 0.2, 0.01, 2
    inst = rs.build_mixture(d0, d1, eps)
    fam = two_member_family()
    h, _ = rs.calibrated_multiaccuracy(
        inst.g, inst.d_x, fam, rs.BoostParams(epsilon=eps * eps, gamma=gamma)
    )
    report = rs.verify_single_proxy(inst, h, fam, eps, gamma, k)
    assert report.passed, report.failed_names()
    assert "tilde0" in report.witnesses


def test_single_proxy_gamma_gate():
    d0, d1 = disjoint_pair()
    inst = rs.build_mixture(d0, d1, 0.2)
    with pytest.raises(rs.ValidationError, match="gamma"):
        rs.verify_single_proxy(inst, inst.g, two_member_family(), 0.2, 0.15, 2)


# -- characterize ------------------------------------------------------------------


def test_characterize_identical_sources():
    d = rs.Distribution(np.array([0.35, 0.65]))
    report = rs.characterize(d, d, two_member_family(), 0.1, 2)
    assert report.passed, report.failed_names()
    chain = report.extras["chain"]
    keps = chain["k_epsilon"]
    assert chain["family_distance_lower"] <= keps + TOL
    assert chain["proxy_tv"] <= keps + TOL
    assert chain["family_distance_upper"] <= keps + TOL


def test_characterize_disjoint_sources_saturate():
    d0, d1 = disjoint_pair()
    report = rs.characterize(d0, d1, two_member_family(), 0.1, 3)
    assert report.passed, report.failed_names()
    assert report.extras["chain"]["proxy_tv"] >= 1.0 - 3 * 0.1
    assert report.extras["chain"]["distinct_families"] is True


def test_characterize_single_proxy_marks_tilde0():
    d0 = rs.Distribution(np.array([0.5, 0.5]))
    d1 = rs.Distribution(np.array([0.0, 1.0]))
    report = rs.characterize(d0, d1, two_member_family(), 0.2, 2, mode="single-proxy")
    assert report.passed, report.failed_names()
    assert "d0" in report.witnesses["tilde0"]


def test_characterize_super_single_level_chain():
    d0, d1 = disjoint_pair()
    levels = [
        rs.explicit_family([[1.0, 1.0]], name="L0"),
        two_member_family(),
        rs.explicit_family([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], name="L2"),
    ]
    ladder = rs.GradedLadder(levels, name="chain").padded(40)
    growth = rs.GrowthMap.shift(ladder, 1)
    report = rs.characterize_super(d0, d1, ladder, growth, 0.1, 2)
    assert report.passed, report.failed_names()
    chain = report.extras["chain"]
    assert chain["distinct_families"] is False
    assert chain["lower_family"] == chain["upper_family"]
    assert chain["chain_level"] == chain["simulator_level"] + 1


def test_characterize_super_identity_growth_flags_degenerate():
    d0, d1 = disjoint_pair()
    fam = rs.explicit_family([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]], name="rich")
    ladder = rs.GradedLadder([fam, fam], name="flat")
    growth = rs.GrowthMap.identity(ladder)
    report = rs.characterize_super(d0, d1, ladder, growth, 0.1, 2)
    assert "degenerate_growth" in report.extras["chain"]


@pytest.mark.parametrize("mode", ["two-proxy", "single-proxy"])
def test_characterize_super_flat_ladder_matches_characterize(mode):
    # a flat ladder under the identity growth map never leaves level 0, so the
    # calibrated expanding run must reproduce the calibrated boost exactly
    rng = np.random.default_rng(46)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        d0, d1 = random_distribution(rng, n), random_distribution(rng, n)
        fam = random_family(rng, n, int(rng.integers(1, 5)))
        ladder = rs.GradedLadder([fam, fam, fam], name="flat")
        plain = rs.characterize(d0, d1, fam, 0.2, k, mode=mode)
        sup = rs.characterize_super(d0, d1, ladder, rs.GrowthMap.identity(ladder), 0.2, k, mode=mode)
        assert sup.instance == plain.instance
        assert sup.audits == plain.audits


def _assert_chain_matches_lift(report, family, d0, d1, k):
    chain = report.extras["chain"]
    gaps = np.abs(brute_lifted_gaps(family.matrix, d0.weights, d1.weights, k))
    lift = float(gaps.max())
    upper = max(lift, report.audits["advantage"])
    lower = lift if chain["distinct_families"] else upper
    assert chain["family_distance_lower"] == pytest.approx(lower, abs=1e-12)
    assert chain["family_distance_upper"] == pytest.approx(upper, abs=1e-12)
    descriptors = [f"{m.descriptor}@coord{pos}" for m in family for pos in range(k)]
    for side in ("lower", "upper"):
        witness = chain[f"{side}_witness"]
        if witness == report.witnesses["test"]:
            assert report.audits["advantage"] > lift
        else:
            assert witness.endswith("@coord0")
            assert gaps[descriptors.index(witness)] == pytest.approx(lift, abs=1e-12)


@pytest.mark.parametrize("mode", ["two-proxy", "single-proxy"])
def test_chain_distances_match_lifted_family(mode):
    rng = np.random.default_rng(48)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        d0, d1 = random_distribution(rng, n), random_distribution(rng, n)
        fam = random_family(rng, n, int(rng.integers(1, 5)))
        report = rs.characterize(d0, d1, fam, 0.2, k, mode=mode)
        _assert_chain_matches_lift(report, fam, d0, d1, k)
        ladder = rs.GradedLadder([fam, fam], name="flat")
        growth = rs.GrowthMap.identity(ladder)
        sup = rs.characterize_super(d0, d1, ladder, growth, 0.2, k, mode=mode)
        _assert_chain_matches_lift(sup, ladder[sup.extras["chain"]["chain_level"]], d0, d1, k)


def test_single_proxy_product_test_ties_stay_level_sets():
    # prod h = eps^k ties between points of equal h once split by point
    # identity, so a one-coordinate section was no union of level sets of h
    # and the hybrid step exceeded gamma / eps
    d0 = rs.Distribution(np.array(
        [0.6523162417258327, 0.1565815526471163, 0.1570235647594051, 0.034078640867645886]
    ))
    d1 = rs.Distribution(np.array(
        [0.693454388510569, 0.024528781840412676, 0.01397050399813141, 0.26804632565088693]
    ))
    fam = rs.build_coordinate_family(rs.FiniteDomain(4, bit_width=2))
    report = rs.characterize(d0, d1, fam, 0.1, 9, mode="single-proxy")
    assert report.passed, report.failed_names()


def test_advantage_never_exceeds_true_tv():
    rng = np.random.default_rng(45)
    for _ in range(10):
        report = run_two_proxy(rng, int(rng.integers(2, 5)), 0.2, int(rng.integers(1, 4)))
        assert report.audits["advantage"] <= report.audits["tv_kfold_true"] + TOL


def test_report_json_schema():
    d0, d1 = disjoint_pair()
    report = rs.characterize(d0, d1, two_member_family(), 0.1, 2)
    payload = report.to_json()
    assert set(payload) == {
        "mode", "instance", "params", "audits", "inequalities", "witnesses", "extras",
    }
    for iq in payload["inequalities"]:
        assert set(iq) == {"name", "lhs", "rhs", "slack", "pass"}


# -- one k-fold pass per verification -------------------------------------------


def _coordinates(n):
    return rs.explicit_family(np.eye(n).tolist(), name="coord")


def _verify(mode, inst, h, fam, k):
    if mode == "two-proxy":
        return rs.verify_two_proxy(inst, h, fam, 0.1, 0.01, k)
    return rs.verify_single_proxy(inst, h, fam, 0.1, 0.01, k)


@pytest.mark.parametrize("mode,measures", [("two-proxy", 6), ("single-proxy", 3)])
def test_verify_builds_kfold_state_once(monkeypatch, mode, measures):
    from regsim import kfold, products

    tables, successors, scores = [], [], []

    def spy(log, fn, size=lambda *a: 1):
        def wrapped(*args, **kwargs):
            log.append(size(*args))
            return fn(*args, **kwargs)
        return wrapped

    table_fn = kfold.kfold_type_classes
    table_spy = spy(tables, table_fn, lambda measures, *rest: len(measures))
    for mod in (kfold, products):
        if getattr(mod, "kfold_type_classes", None) is table_fn:
            monkeypatch.setattr(mod, "kfold_type_classes", table_spy)
    monkeypatch.setattr(kfold, "_successors", spy(successors, kfold._successors))
    monkeypatch.setattr(products.ProductTest, "_scores", spy(scores, products.ProductTest._scores))

    # the exact posterior passes every hypothesis gate
    rng = np.random.default_rng(61)
    d0, d1 = random_distribution(rng, 3), random_distribution(rng, 3)
    inst = rs.build_mixture(d0, d1, 0.5 if mode == "two-proxy" else 0.1)
    report = _verify(mode, inst, inst.g, _coordinates(3), 3)
    assert report.passed, report.failed_names()
    assert (tables, len(successors), len(scores)) == ([measures], 1, 1)


def _hex(x) -> str:
    return float(x).hex()


def test_verify_kfold_fields_equal_the_standalone_functions(monkeypatch):
    st = hyp.strategies
    from regsim import products
    from regsim.kfold import _mixed_expectations, _type_table

    # the gates audit h, not the k-fold pass; any h exercises the pass
    monkeypatch.setattr(products, "_require_hypothesis", lambda *a: None)
    tie_modes_seen = set()

    @hyp.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hyp.given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        k=st.integers(1, 6),
        mode=st.sampled_from(["two-proxy", "single-proxy"]),
        ties=st.booleans(),
    )
    def check(seed, n, k, mode, ties):
        rng = np.random.default_rng(seed)
        d0, d1 = random_distribution(rng, n), random_distribution(rng, n)
        eps = 0.1
        if ties:
            # repeated levels; eps^k = prod h on the all-eps tuple (tilted)
            # and h = 1 - h at 1/2 (balanced) are exact score ties
            h_vals = rng.choice([eps, 0.5, 1.0 - eps, 0.3], size=n)
            h_vals[rng.integers(n)] = eps
        else:
            h_vals = rng.uniform(0.01, 0.99, size=n)
        h = rs.BoundedFn(h_vals)
        inst = rs.build_mixture(d0, d1, 0.5 if mode == "two-proxy" else eps)
        report = _verify(mode, inst, h, _coordinates(n), k)
        proxies = rs.build_proxies(inst, h)
        audits = report.audits
        if mode == "two-proxy":
            test = rs.product_distinguisher(h, k, "balanced")
            expected = {
                "tv_kfold_proxies": rs.kfold_tv(proxies.tilde0, proxies.tilde1, k),
                "advantage_hat_pair": rs.test_advantage(test, proxies.hat0, proxies.hat1, k),
            }
            hybrids = {"hybrid-step-0": (d0, proxies.hat0), "hybrid-step-1": (d1, proxies.hat1)}
        else:
            test = rs.product_distinguisher(h, k, "tilted", epsilon=eps)
            expected = {"tv_kfold_d0_proxy": rs.kfold_tv(d0, proxies.tilde1, k)}
            hybrids = {"hybrid-step-1": (d1, proxies.hat1)}
        expected.update(
            tv_kfold_true=rs.kfold_tv(d0, d1, k),
            advantage=rs.test_advantage(test, d0, d1, k),
            tie_mass_d0=rs.tie_mass(test, d0, k),
            tie_mass_d1=rs.tie_mass(test, d1, k),
        )
        for name, value in expected.items():
            assert _hex(audits[name]) == _hex(value), name
        if audits["tie_mass_d0"] > 0:
            tie_modes_seen.add(mode)
        for name, (dist, hat) in hybrids.items():
            standalone = rs.hybrid_bound_check(h, dist, hat, k, test=test)
            assert _hex(report.inequality(name).lhs) == _hex(standalone), name

        # one multi-pair sweep equals per-pair sweeps, bit for bit
        values = test.on_counts(_type_table(n, k)[0])
        pairs = list(hybrids.values()) + [(proxies.hat1, d0)]
        together = _mixed_expectations(values, pairs, k)
        for pair, sums in zip(pairs, together):
            assert sums.tobytes() == _mixed_expectations(values, [pair], k)[0].tobytes()
        if n**k <= 1000:
            value_of = functools.lru_cache(maxsize=None)(
                lambda tup: float(test.on_counts(counts_of(tup, n)[None, :])[0])
            )
            for (p, q), sums in zip(pairs, together):
                pw = np.asarray(getattr(p, "weights", p))
                qw = np.asarray(getattr(q, "weights", q))
                brute = brute_hybrid_expectations(value_of, pw, qw, k)
                # 1e-12 per unit of hybrid mass (single-proxy hats weigh ~1/eps)
                mass = max(pw.sum() ** j * qw.sum() ** (k - j) for j in range(k + 1))
                assert np.allclose(sums, brute, rtol=0, atol=1e-12 * max(1.0, mass))

    check()
    assert tie_modes_seen == {"two-proxy", "single-proxy"}


@pytest.mark.parametrize("mode", ["two-proxy", "single-proxy"])
@pytest.mark.parametrize("ladder", [False, True])
def test_over_reach_k_is_refused_before_fitting(monkeypatch, mode, ladder):
    def no_fit(*args, **kwargs):
        raise AssertionError("the simulator was fitted")

    monkeypatch.setattr(rs.boosting, "_boost", no_fit)
    monkeypatch.setattr(rs.products, "_boost", no_fit)
    rng = np.random.default_rng(29)
    d0, d1 = random_distribution(rng, 4), random_distribution(rng, 4)
    with pytest.raises(rs.CapExceededError, match=r"^successor maps for N=4, k=300 "):
        if ladder:
            chain = rs.GradedLadder([_coordinates(4)])
            rs.characterize_super(d0, d1, chain, rs.GrowthMap.identity(chain), 0.1, 300, mode)
        else:
            rs.characterize(d0, d1, _coordinates(4), 0.1, 300, mode=mode)


@pytest.mark.parametrize("mode", ["two-proxy", "single-proxy"])
def test_characterize_names_the_successor_cap(mode):
    d0 = rs.Distribution(np.array([0.5, 0.3, 0.2]))
    d1 = rs.Distribution(np.array([0.2, 0.3, 0.5]))
    with pytest.raises(rs.CapExceededError) as err:
        rs.characterize(d0, d1, _coordinates(3), 0.1, 300, mode=mode)
    assert str(err.value) == (
        "successor maps for N=3, k=300 would need 13635300 entries, above the cap of "
        "5000000; use a Monte Carlo estimate outside this library instead"
    )
