import re
import tracemalloc

import numpy as np
import pytest

import regsim as rs
from regsim import families
from regsim.config import plan_config
from regsim.demos import demo_config, demo_names
from conftest import nested_ladder, random_bounded, random_distribution, random_family
from oracles import brute_best_response, compose_rows, ladder_nested_bytes


def rows(family):
    """The set of a family's member value vectors."""
    return {tuple(row) for row in family.matrix}


def full_catalog():
    return [
        rs.combinator_identity(), rs.combinator_negation(),
        rs.combinator_min(), rs.combinator_max(),
    ]


def two_member_family():
    return rs.explicit_family([[1.0, 1.0], [0.0, 1.0]], name="const1+ind1")


def test_best_response_zero_residual(uniform2, g10):
    br = rs.best_response(two_member_family(), g10, g10, uniform2)
    assert br.correlation == 0.0
    assert br.index == 0 and br.sign == +1  # tie-break: lowest index, then +1


def test_best_response_enumerates_signed_candidates(uniform2, g10):
    h = rs.BoundedFn(np.array([0.5, 0.5]))
    br = rs.best_response(two_member_family(), g10, h, uniform2)
    assert br.index == 1 and br.sign == -1
    assert br.correlation == pytest.approx(0.25, abs=1e-12)
    assert br.slack == 0.0


def test_best_response_single_candidate(uniform2):
    g = rs.BoundedFn(np.array([1.0, 1.0]))
    h = rs.BoundedFn(np.array([0.5, 0.5]))
    family = rs.explicit_family([[1.0, 1.0]])
    br = rs.best_response(family, g, h, uniform2)
    assert br.sign == +1
    assert br.correlation == pytest.approx(0.5, abs=1e-12)


def test_best_response_matches_plain_scan():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        family = random_family(rng, n, int(rng.integers(1, 12)))
        g, h = random_bounded(rng, n), random_bounded(rng, n)
        d = random_distribution(rng, n)
        br = rs.best_response(family, g, h, d)
        idx, sign, corr = brute_best_response(
            [list(r) for r in family.matrix], list(g.values), list(h.values), list(d.weights)
        )
        assert br.correlation == pytest.approx(corr, abs=1e-12)


def test_family_distance_examples(uniform2):
    fam = rs.explicit_family([[0.0, 1.0]])
    p = rs.Distribution(np.array([0.5, 0.5]))
    q = rs.Distribution(np.array([0.75, 0.25]))
    fd = rs.family_distance(fam, p, q)
    assert fd.value == pytest.approx(0.25, abs=1e-12)
    assert fd.index == 0
    assert rs.family_distance(fam, p, p).value == 0.0
    half = rs.explicit_family([[0.5, 0.5]])
    assert rs.family_distance(half, p, q).value == pytest.approx(0.0, abs=1e-12)


def test_family_distance_below_tv():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        fam = random_family(rng, n, int(rng.integers(1, 8)))
        p, q = random_distribution(rng, n), random_distribution(rng, n)
        assert rs.family_distance(fam, p, q).value <= rs.tv_distance(p, q) + 1e-12


def test_coordinate_family_single_bit():
    fam = rs.build_coordinate_family(rs.FiniteDomain(size=2, bit_width=1))
    assert len(fam) == 1
    assert list(fam[0].values.values) == [0.0, 1.0]
    assert fam[0].label == rs.ComplexityLabel(1, 0)


def test_coordinate_family_bit_order():
    fam = rs.build_coordinate_family(rs.FiniteDomain(size=4, bit_width=2))
    # element 3 = binary 11: both coordinates read 1
    assert fam[0].values.values[3] == 1.0 and fam[1].values.values[3] == 1.0
    # element 2 = binary 10 under (high, low) order: coordinates read (1, 0)
    assert fam[0].values.values[2] == 1.0 and fam[1].values.values[2] == 0.0


def test_coordinate_family_needs_bit_width():
    with pytest.raises(rs.ValidationError):
        rs.build_coordinate_family(rs.FiniteDomain(size=4))


def test_threshold_family():
    h = rs.BoundedFn(np.array([0.25, 0.75]))
    fam = rs.build_threshold_family(h, [0.5])
    assert list(fam[0].values.values) == [0.0, 1.0]
    all_zero = rs.build_threshold_family(h, [1.0])
    assert not np.any(all_zero[0].values.values)
    const1 = rs.build_threshold_family(h, [0.0])
    assert np.all(const1[0].values.values == 1.0)
    with pytest.raises(rs.ValidationError):
        rs.build_threshold_family(h, [0.5, 0.25])


def test_rectangle_family_1x1():
    fam = rs.build_rectangle_family(1, 1)
    assert len(fam) == 4  # every (S, T) pair, empty sides included
    values = rows(fam)
    assert (1.0,) in values and (0.0,) in values


def test_rectangle_family_2x1_distinct_functions():
    fam = rs.build_rectangle_family(2, 1)
    assert rows(fam) == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


def test_rectangle_family_2x2_count():
    fam = rs.build_rectangle_family(2, 2)
    assert len(fam) == 16
    with pytest.raises(rs.CapExceededError):
        rs.build_rectangle_family(8, 8, cap=1000)


def test_compose_identity_is_base(uniform2):
    base = two_member_family()
    composed = rs.compose_level(base, 1, 1, [rs.combinator_identity()])
    assert rows(composed) == rows(base)
    # identity lift leaves the distance functional unchanged
    rng = np.random.default_rng(12)
    for _ in range(10):
        p, q = random_distribution(rng, 2), random_distribution(rng, 2)
        assert rs.family_distance(composed, p, q).value == pytest.approx(
            rs.family_distance(base, p, q).value, abs=1e-12
        )


def test_compose_negation():
    base = rs.explicit_family([[0.0, 1.0]])
    composed = rs.compose_level(base, 1, 1, [rs.combinator_identity(), rs.combinator_negation()])
    assert (1.0, 0.0) in rows(composed)
    assert (0.0, 1.0) in rows(composed)


def test_compose_min_gives_pointwise_min():
    base = rs.explicit_family([[1.0, 0.0], [0.0, 1.0]])
    composed = rs.compose_level(base, 2, 1, [rs.combinator_min()])
    assert (0.0, 0.0) in rows(composed)
    assert composed.label == rs.ComplexityLabel(2, 1)


def test_compose_cap():
    base = random_family(np.random.default_rng(0), 4, 10)
    with pytest.raises(rs.CapExceededError):
        rs.compose_level(base, 2, 1, [rs.combinator_min()], cap=50)


def test_ladder_nesting_enforced():
    a = rs.explicit_family([[1.0, 1.0]])
    b = rs.explicit_family([[0.0, 1.0]])
    with pytest.raises(rs.ValidationError, match="not nested"):
        rs.GradedLadder([a, b])


def test_ladder_nesting_reads_negative_zero_as_zero():
    lower = rs.explicit_family([[-0.0, 1.0]])
    upper = rs.explicit_family([[1.0, 1.0], [0.0, 1.0]])
    assert rs.GradedLadder([lower, upper, upper]).depth == 3
    with pytest.raises(rs.ValidationError, match="level 1 has a member missing"):
        rs.GradedLadder([lower, upper, rs.explicit_family([[1.0, 1.0], [0.0, 0.5]])])


@pytest.mark.parametrize("s1", [1, 2])
def test_compose_level_matches_per_tuple_loop(s1):
    base = random_family(np.random.default_rng(17), 5, 4)
    catalog = full_catalog()
    composed = rs.compose_level(base, s1, 1, catalog)
    rows, descriptors = compose_rows(
        base.matrix,
        base.descriptors,
        [(c.name, c.arity, c.fn) for c in catalog if c.arity <= s1],
    )
    assert composed.matrix.tobytes() == rows.tobytes()
    assert list(composed.descriptors) == descriptors
    assert set(composed.labels) == {rs.ComplexityLabel(s1, 1)}


def test_compose_level_range_check_names_the_inputs():
    def doubled(a, out=None):
        return np.multiply(2.0, a, out=out)

    base = rs.explicit_family([[0.0, 0.25], [0.75, 0.5]])
    with pytest.raises(rs.ValidationError) as err:
        rs.compose_level(base, 1, 0, [rs.Combinator("double", 1, 0, doubled)])
    assert str(err.value) == "combinator double left [0, 1] on inputs (1,)"


def test_compose_level_allocates_only_its_output():
    base = rs.build_coordinate_family(rs.FiniteDomain(size=4096, bit_width=12))
    catalog = full_catalog()
    tracemalloc.start()
    try:
        composed = rs.compose_level(base, 2, 1, catalog)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # an (m^2, N) temporary per binary combinator would put this near 1.47
    assert peak <= 1.1 * composed.matrix.nbytes


def random_nesting_levels(rng):
    """Level matrices of a random chain: each level holds the rows below it,
    shuffled, some duplicated and some zeros written as -0.0, plus new
    rows.  A third of the chains then move one entry of a lower level by
    one ulp, and a sixth drop the first row of an upper level."""
    n = int(rng.integers(1, 7))

    def member():
        if rng.uniform() < 0.5:
            return (rng.uniform(size=n) > rng.uniform()).astype(float)
        return rng.uniform(size=n)

    rows, levels = [member()], []
    for _ in range(int(rng.integers(2, 5))):
        rows = rows + [member() for _ in range(int(rng.integers(0, 3)))]
        level = np.array(rows)[rng.permutation(len(rows))]
        level = np.vstack([level, level[rng.integers(len(level), size=int(rng.integers(0, 3)))]])
        level[(level == 0.0) & (rng.uniform(size=level.shape) < 0.5)] = -0.0
        levels.append(level)
    defect = rng.uniform()
    if defect < 1 / 3:
        level = levels[int(rng.integers(len(levels) - 1))]
        r, c = int(rng.integers(len(level))), int(rng.integers(n))
        level[r, c] = np.nextafter(level[r, c], 1.0 if level[r, c] < 1.0 else 0.0)
    elif defect < 1 / 2:
        j = int(rng.integers(1, len(levels)))
        levels[j] = levels[j][1:]
    return levels


def ladder_verdict(levels):
    """None when GradedLadder accepts the levels, else the level it names."""
    try:
        rs.GradedLadder([rs.explicit_family(level) for level in levels])
    except rs.ValidationError as err:
        return int(re.search(r"level (\d+) has a member missing", str(err)).group(1))
    return None


@pytest.mark.parametrize("collide", [False, True])
def test_ladder_nesting_matches_the_bytes_rule(monkeypatch, collide):
    fallbacks = []
    exact = families._missing_by_bytes
    monkeypatch.setattr(
        families, "_missing_by_bytes", lambda rows, upper: fallbacks.append(1) or exact(rows, upper)
    )
    if collide:
        # every row keys to 0.0, so every lower row not equal to the first
        # upper row is settled by the exact fallback
        monkeypatch.setattr(families, "_row_key_weights", lambda n: np.zeros(n))
    rng = np.random.default_rng(31)
    verdicts = []
    for _ in range(300):
        levels = random_nesting_levels(rng)
        before = len(fallbacks)
        expected = ladder_nested_bytes(levels)
        assert ladder_verdict(levels) == expected
        if not collide:
            # the key path settles every nested chain on its own
            assert (len(fallbacks) > before) == (expected is not None)
        verdicts.append(expected)
    assert verdicts.count(None) > 100 and len(set(verdicts)) > 2
    assert fallbacks


def test_ladder_builds_stay_on_the_key_path(monkeypatch):
    calls = {"nested": 0, "fallback": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(families, "_nested", counted("nested", families._nested))
    monkeypatch.setattr(
        families, "_missing_by_bytes", counted("fallback", families._missing_by_bytes)
    )
    laddered = [name for name in demo_names() if "ladder" in demo_config(name)]
    assert len(laddered) == 3
    for name in laddered:
        plan, problems = plan_config(demo_config(name))
        assert problems == [] and plan.ladder is not None
    # a composed chain as the supersimulators climb it: 256 points, binary
    # members, the four catalogs in turn
    base = rs.build_coordinate_family(rs.FiniteDomain(size=256, bit_width=8))
    catalog = full_catalog()
    levels = [base] + [
        rs.compose_level(base, 2 if size > 2 else 1, 1, catalog[:size]) for size in (2, 3, 4)
    ]
    rs.GradedLadder(levels).padded(12)
    assert calls["nested"] > 0 and calls["fallback"] == 0


def test_ladder_labels_monotone():
    lo = rs.explicit_family([[1.0, 1.0]], label=rs.ComplexityLabel(3, 3))
    hi = rs.explicit_family([[1.0, 1.0], [0.0, 1.0]], label=rs.ComplexityLabel(1, 1))
    with pytest.raises(rs.ValidationError, match="nondecreasing"):
        rs.GradedLadder([lo, hi])


def test_ladder_padding_repeats_top():
    rng = np.random.default_rng(13)
    ladder = nested_ladder(rng, 4, 3, pad_to=7)
    assert ladder.depth == 7
    assert rows(ladder[6]) == rows(ladder[2])


def test_apply_growth_examples():
    rng = np.random.default_rng(14)
    ladder = nested_ladder(rng, 4, 5)
    ident = rs.GrowthMap.identity(ladder)
    assert rs.apply_growth(ident, 3) == 3
    shift = rs.GrowthMap.shift(ladder, 1)
    assert rs.apply_growth(shift, 3) == 4
    with pytest.raises(rs.LadderExhaustedError):
        rs.apply_growth(shift, 4)


def test_growth_map_must_be_monotone_and_inflationary():
    rng = np.random.default_rng(15)
    ladder = nested_ladder(rng, 4, 3)
    with pytest.raises(rs.ValidationError):
        rs.GrowthMap.explicit(ladder, [0, 0, 1])  # map(1) < 1
    with pytest.raises(rs.ValidationError):
        rs.GrowthMap.explicit(ladder, [2, 1, 2])  # not nondecreasing


def test_nesting_makes_best_response_monotone():
    rng = np.random.default_rng(16)
    for _ in range(10):
        n = 6
        ladder = nested_ladder(rng, n, 4, members_per_level=2)
        g, h = random_bounded(rng, n), random_bounded(rng, n)
        d = random_distribution(rng, n)
        prev = -1.0
        for lvl in range(ladder.depth):
            corr = rs.best_response(ladder[lvl], g, h, d).correlation
            assert corr >= prev - 1e-12
            prev = corr


def test_error_schedule():
    sched = rs.ErrorSchedule([0.2, 0.1, 0.05])
    assert sched.eps_at(0) == 0.2
    assert sched.eps_at(10) == 0.05
    with pytest.raises(rs.ValidationError):
        rs.ErrorSchedule([0.1, 0.2])
    with pytest.raises(rs.ValidationError):
        rs.ErrorSchedule([0.6])
    geo = rs.ErrorSchedule.geometric(0.2, 0.5, 4, floor=0.01)
    assert geo.values == (0.2, 0.1, 0.05, 0.025)


def test_complexity_label_partial_order():
    a, b = rs.ComplexityLabel(1, 2), rs.ComplexityLabel(2, 2)
    assert a.le(b) and not b.le(a)
    assert not rs.ComplexityLabel(2, 1).le(rs.ComplexityLabel(1, 2))
    assert (a + b) == rs.ComplexityLabel(3, 4)
    assert a.scale(3) == rs.ComplexityLabel(3, 6)


def test_empty_family_rejected():
    with pytest.raises(rs.EmptyFamilyError):
        rs.Family(np.empty((0, 2)), [], [])


@pytest.mark.parametrize("m, n", [(1, 5), (33, 7), (70, 1)])
def test_by_point_is_a_cached_read_only_point_major_copy(m, n):
    fam = random_family(np.random.default_rng(m), n, m)
    by_point = fam.by_point
    assert by_point.shape == (n, m) and by_point.flags.c_contiguous
    assert not by_point.flags.writeable
    assert by_point.tobytes() == np.ascontiguousarray(fam.matrix.T).tobytes()
    assert fam.by_point is by_point
