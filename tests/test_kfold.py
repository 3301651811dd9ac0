import math

import hypothesis as hyp
import numpy as np
import pytest

import regsim as rs
from conftest import empty_build_cache, random_distribution
from oracles import (
    brute_kfold_expectation,
    brute_kfold_tv,
    compositions_desc,
    counts_of,
    product_masses_rowwise,
)
from regsim import domain, kfold


def test_binomial_row_weights():
    p = rs.Distribution(np.array([0.5, 0.5]))
    table = rs.kfold_type_classes([p], 2)
    assert table.num_types == 3
    assert list(table.weights) == [1.0, 2.0, 1.0]


def test_binomial_masses():
    p = rs.Distribution(np.array([0.75, 0.25]))
    table = rs.kfold_type_classes([p], 2)
    assert np.allclose(table.masses[0], [0.5625, 0.1875, 0.0625], atol=1e-15)
    # weighted masses are the binomial expansion terms
    assert np.allclose(table.weights * table.masses[0], [0.5625, 0.375, 0.0625], atol=1e-15)


def test_singleton_tuples():
    p = rs.Distribution(np.array([0.2, 0.3, 0.5]))
    table = rs.kfold_type_classes([p], 1)
    assert table.num_types == 3
    assert np.all(table.weights == 1.0)


def test_normalization_invariant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 6))
        p = random_distribution(rng, n)
        table = rs.kfold_type_classes([p], k)
        assert float(np.dot(table.weights, table.masses[0])) == pytest.approx(1.0, abs=1e-10)


def test_kfold_tv_is_tv_at_k1():
    rng = np.random.default_rng(3)
    p = random_distribution(rng, 4)
    q = random_distribution(rng, 4)
    assert rs.kfold_tv(p, q, 1) == pytest.approx(rs.tv_distance(p, q), abs=1e-12)


def test_kfold_tv_hand_value():
    p = rs.Distribution(np.array([0.5, 0.5]))
    q = rs.Distribution(np.array([0.75, 0.25]))
    assert rs.kfold_tv(p, q, 2) == pytest.approx(0.3125, abs=1e-12)


def test_kfold_tv_identical_products():
    p = rs.Distribution(np.array([0.3, 0.7]))
    for k in range(1, 5):
        assert rs.kfold_tv(p, p, k) == 0.0


def test_kfold_tv_brute_force_agreement():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 6))
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        assert rs.kfold_tv(p, q, k) == pytest.approx(
            brute_kfold_tv(p.weights, q.weights, k), abs=1e-12
        )


def test_kfold_tv_sandwich_and_monotone():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        d = rs.tv_distance(p, q)
        prev = 0.0
        for k in range(1, 6):
            dk = rs.kfold_tv(p, q, k)
            assert dk <= 1.0 - (1.0 - d) ** k + 1e-10
            assert 1.0 - (1.0 - d) ** k <= k * d + 1e-10
            assert dk >= prev - 1e-10
            prev = dk


def test_kfold_expectation_constant_test():
    p = rs.Distribution(np.array([0.4, 0.6]))
    assert rs.kfold_expectation(lambda c: np.ones(c.shape[0]), p, 3) == pytest.approx(1.0, abs=1e-12)


def test_kfold_expectation_product_threshold_pointmass():
    h = rs.BoundedFn(np.array([0.25, 0.75]))
    test = rs.ProductTest(h, 2, "balanced")
    p1 = rs.Distribution(np.array([0.0, 1.0]))
    p0 = rs.Distribution(np.array([1.0, 0.0]))
    assert rs.kfold_expectation(test, p1, 2) == 1.0
    assert rs.kfold_expectation(test, p0, 2) == 0.0


def test_kfold_expectation_brute_force_agreement():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 6))
        p = random_distribution(rng, n)
        h = rs.BoundedFn(rng.uniform(size=n))
        test = rs.ProductTest(h, k, "balanced")
        exact = rs.kfold_expectation(test, p, k)
        brute = brute_kfold_expectation(
            lambda tup: float(test.on_counts(counts_of(tup, n)[None, :])[0]),
            p.weights,
            k,
        )
        assert exact == pytest.approx(brute, abs=1e-12)


def test_kfold_expectation_rejects_non_symmetric():
    p = rs.Distribution(np.array([0.5, 0.5]))
    with pytest.raises(rs.ValidationError):
        rs.kfold_expectation("not-a-test", p, 2)


def test_cap_exceeded_instructs_monte_carlo(monkeypatch):
    p = rs.Distribution(np.full(64, 1 / 64))
    monkeypatch.setattr(kfold, "DEFAULT_TYPE_CAP", 1000)
    with pytest.raises(rs.CapExceededError, match="above the cap of 1000; .*Monte Carlo"):
        rs.kfold_type_classes([p], 40)


def test_type_count():
    assert rs.type_count(2, 2) == 3
    assert rs.type_count(3, 1) == 3
    assert rs.type_count(4, 5) == 56


@pytest.mark.parametrize("n,k", [(2, 60), (3, 30), (8, 6)])
def test_type_table_rows_and_exact_multinomials(n, k):
    # (2, 60) has multinomials above 2^53, where summing weights through the
    # successor maps in floats would round differently in some rows
    table = rs.kfold_type_classes([np.full(n, 1.0 / n)], k)
    assert np.array_equal(table.counts, compositions_desc(k, n))
    expected = [
        float(math.factorial(k) // math.prod(math.factorial(int(v)) for v in row))
        for row in table.counts
    ]
    assert list(table.weights) == expected


@pytest.mark.parametrize("n,k", [(1, 4), (2, 7), (3, 5), (5, 4)])
def test_successor_maps_add_one_point(n, k):
    from regsim.kfold import _successors, _types

    succ = _successors(n, k)
    for i in range(k):
        rows, up = _types(n, i), _types(n, i + 1)
        for x in range(n):
            plus_one = rows.copy()
            plus_one[:, x] += 1
            assert np.array_equal(up[succ[i][:, x]], plus_one)


def test_large_k_is_answered_or_refused_without_building_layers():
    # the largest k whose multinomials fit a double at N=2 (C(1029, 514) < 1.8e308)
    assert 0.0 < rs.kfold_tv([0.7, 0.3], [0.4, 0.6], 1029) <= 1.0
    for n, k in [(2, 1030), (2, 20000), (3, 3000)]:
        with pytest.raises(rs.ValidationError, match="double precision"):
            rs.kfold_tv(np.full(n, 1 / n), np.full(n, 1 / n), k)


# -- the (N, k) layout cache and the gathered product masses -----------------


def _largest_k(n, limit=5000):
    """The largest k <= 12 with at most ``limit`` types on n points."""
    return max(k for k in range(1, 13) if rs.type_count(n, k) <= limit)


def test_gathered_masses_equal_the_rowwise_formula_bit_for_bit():
    st = hyp.strategies
    entry = st.one_of(
        st.just(0.0),
        st.sampled_from([5e-324, 1e-310, 2.0 ** -1022]),
        st.floats(min_value=0.0, max_value=4.0),
    )
    layout = st.integers(1, 64).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, _largest_k(n)))
    )

    @hyp.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hyp.given(layout=layout, data=st.data())
    def check(layout, data):
        n, k = layout
        vec = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
        counts, _, idx = kfold._type_table(n, k)
        with np.errstate(under="ignore", over="ignore"):
            gathered = kfold._product_masses(idx, vec, k)
            rowwise = product_masses_rowwise(counts, vec)
        assert gathered.tobytes() == rowwise.tobytes()

    check()


LAYOUTS = ("_type_table", "_successors")


def test_cached_layouts_are_read_only():
    for arrays in (kfold._type_table(3, 4), kfold._successors(3, 4)):
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[(0,) * arr.ndim] = 7
    layouts = [arrays for key, (arrays, _) in domain._cache.items() if key[0] in LAYOUTS]
    assert layouts and all(not arr.flags.writeable for arrays in layouts for arr in arrays)


def test_second_verification_at_the_same_layout_builds_nothing(monkeypatch, fresh_cache):
    # both cached layouts enumerate types through _types, which runs only
    # on a cache miss
    built = []
    real_types = kfold._types
    monkeypatch.setattr(kfold, "_types", lambda n, k: built.append((n, k)) or real_types(n, k))
    d0 = rs.Distribution(np.array([0.1, 0.2, 0.3, 0.4]))
    d1 = rs.Distribution(np.array([0.4, 0.3, 0.2, 0.1]))
    inst = rs.build_mixture(d0, d1, 0.5)
    family = rs.explicit_family([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    reports = []
    for expect_builds in (True, False):
        built.clear()
        reports.append(rs.verify_two_proxy(inst, inst.g, family, 0.05, 0.01, 3).to_json())
        assert bool(built) == expect_builds, built
    assert reports[0] == reports[1]
    assert set(domain._cache) == {("_type_table", 4, 3), ("_successors", 4, 3)}


def test_cache_stays_within_its_byte_budget(monkeypatch, fresh_cache):
    big = [arr.copy() for arr in kfold._type_table(2, 500)]
    empty_build_cache(monkeypatch)
    budget = 6000
    monkeypatch.setattr(domain, "_CACHE_BYTES", budget)
    # 501 types: 8016 bytes of counts alone, so built and used but not kept
    over = kfold._type_table(2, 500)
    assert all(np.array_equal(a, b) for a, b in zip(over, big))
    assert not domain._cache
    assert 0.0 < rs.kfold_tv([0.7, 0.3], [0.4, 0.6], 500) <= 1.0
    for n, k in [(2, 20), (3, 6), (2, 30), (4, 3), (3, 7), (2, 20)]:
        kfold._type_table(n, k)
        kfold._successors(n, k)
        assert sum(domain._nbytes(v) for v, _ in domain._cache.values()) <= budget
        assert all(size == domain._nbytes(v) for v, size in domain._cache.values())
    # least recently used goes first: (2, 20) was asked for last
    assert list(domain._cache)[-2:] == [("_type_table", 2, 20), ("_successors", 2, 20)]
    assert ("_type_table", 3, 6) not in domain._cache


def _k_entry_points(k):
    p, q = [0.7, 0.3], [0.4, 0.6]
    h = rs.BoundedFn(np.array([0.2, 0.9]))
    test = rs.ProductTest(h, 2, "balanced")
    d0, d1 = rs.Distribution(np.array(p)), rs.Distribution(np.array(q))
    family = rs.explicit_family([[1.0, 1.0], [0.0, 1.0]])
    return [
        lambda: rs.kfold_tv(p, q, k),
        lambda: rs.kfold_type_classes([p], k),
        lambda: rs.kfold_expectation(test, p, k),
        # the verification's one k-fold pass: its table, test and hybrids
        lambda: rs.characterize(d0, d1, family, 0.1, k),
        lambda: rs.ProductTest(h, k, "balanced"),
    ]


@pytest.mark.parametrize("k", [2.0, 2.5, "2", True, None, 0, -1])
def test_non_integer_k_is_a_named_problem_even_when_cached(k):
    for call in _k_entry_points(2):
        call()  # warms the (2, 2) layouts that 2.0 would hash onto
    problem = "k must be >= 1" if type(k) is int else "k must be an integer"
    for call in _k_entry_points(k):
        with pytest.raises(rs.ValidationError, match=f"^{problem}$"):
            call()


def test_numpy_integer_k_is_accepted():
    for plain, numpy_k in zip(_k_entry_points(2), _k_entry_points(np.int64(2))):
        result = numpy_k()
        if isinstance(result, float):
            assert result == plain()
        elif isinstance(result, rs.CharacterizationReport):
            assert result.to_json() == plain().to_json()


def test_empty_measure_is_named():
    test = rs.ProductTest(rs.BoundedFn(np.array([0.5])), 2, "balanced")
    for call in (
        lambda: rs.kfold_tv([], [], 2),
        lambda: rs.kfold_type_classes([np.array([])], 2),
        lambda: rs.kfold_expectation(test, [], 2),
    ):
        with pytest.raises(rs.ValidationError, match="^measure 0 is empty$"):
            call()
    with pytest.raises(rs.ValidationError, match="first measure is empty"):
        rs.tv_distance([], [])
