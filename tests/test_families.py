import json
import re
import tracemalloc

import hypothesis as hyp
import numpy as np
import pytest

import regsim as rs
from regsim import families
from regsim import config as config_mod
from regsim.config import ConfigContext, build_ladder, plan_config
from regsim.runner import run_config
from regsim.demos import demo_config, demo_names
from conftest import nested_ladder, random_bounded, random_distribution, random_family
from oracles import (
    best_response_interleaved,
    brute_best_response,
    compose_rows,
    ladder_level_by_level,
    ladder_nested_bytes,
)


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


def test_best_response_enumerates_signed_candidates(monkeypatch, uniform2, g10):
    h = rs.BoundedFn(np.array([0.5, 0.5]))
    family = two_member_family()
    built = []
    post_init = rs.BoundedFn.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(rs.BoundedFn, "__post_init__", counted)
    br = rs.best_response(family, g10, h, uniform2)
    assert br.index == 1 and br.sign == -1
    assert br.correlation == pytest.approx(0.25, abs=1e-12)
    assert built == []  # the witness is an index; no member row is copied


def test_best_response_single_candidate(uniform2):
    g = rs.BoundedFn(np.array([1.0, 1.0]))
    h = rs.BoundedFn(np.array([0.5, 0.5]))
    family = rs.explicit_family([[1.0, 1.0]])
    br = rs.best_response(family, g, h, uniform2)
    assert br.sign == +1
    assert br.correlation == pytest.approx(0.5, abs=1e-12)


class ScoredRows:
    """A family stand-in whose matvec returns fixed row scores, so the
    selection of best_response meets any score vector, -0.0 included."""

    def __init__(self, scores, n):
        self.scores = np.array(scores, dtype=float)
        self.matrix, self.domain_size = self, n
        self.firsts = np.arange(len(self.scores))

    def __matmul__(self, residual):
        return self.scores


def test_best_response_selection_matches_interleaved_argmax():
    d = rs.Distribution.uniform(2)
    g = h = rs.BoundedFn(np.array([0.5, 0.5]))
    crafted = [
        [0.0], [-0.0], [0.0, 0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0],
        [0.25], [-0.25], [0.5, -0.5], [-0.5, 0.5], [0.1, 0.5, -0.5], [-0.5, 0.2, 0.5],
        [0.3, 0.3, -0.1], [-0.3, -0.3, 0.1], [-0.3, 0.1, -0.3], [0.25, -0.25, 0.25, -0.25],
    ]
    rng = np.random.default_rng(41)
    drawn = []
    for _ in range(500):
        scores = rng.integers(-2, 3, size=int(rng.integers(1, 7))) / 4
        scores[rng.uniform(size=scores.size) < 0.3] = -0.0
        drawn.append(scores.tolist())
    signs = set()
    for scores in crafted + drawn:
        br = rs.best_response(ScoredRows(scores, 2), g, h, d)
        row, sign, corr = best_response_interleaved(scores)
        assert (br.index, br.sign) == (row, sign), scores
        assert np.float64(br.correlation).tobytes() == np.float64(corr).tobytes(), scores
        signs.add((sign, np.signbit(corr)))
    # both signs win, and a -0.0 score is reported as it is
    assert {(+1, False), (-1, False), (+1, True)} <= signs


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
    # a raw nonnegative vector (mass 0.9) is taken as it is
    raw = rs.family_distance(fam, p, np.array([0.6, 0.3]))
    assert (raw.value, raw.index) == (pytest.approx(0.2, abs=1e-12), 0)
    with pytest.raises(rs.DomainMismatchError):
        rs.family_distance(fam, p, rs.Distribution.uniform(3))
    with pytest.raises(rs.ValidationError, match="nonnegative"):
        rs.family_distance(fam, p, np.array([1.5, -0.5]))


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
    assert list(fam.matrix[0]) == [0.0, 1.0]
    assert fam.labels[0] == rs.ComplexityLabel(1, 0)


def test_coordinate_family_bit_order():
    fam = rs.build_coordinate_family(rs.FiniteDomain(size=4, bit_width=2))
    # element 3 = binary 11: both coordinates read 1
    assert list(fam.matrix[:, 3]) == [1.0, 1.0]
    # element 2 = binary 10 under (high, low) order: coordinates read (1, 0)
    assert list(fam.matrix[:, 2]) == [1.0, 0.0]


def test_coordinate_family_needs_bit_width():
    with pytest.raises(rs.ValidationError):
        rs.build_coordinate_family(rs.FiniteDomain(size=4))


def test_threshold_family():
    h = rs.BoundedFn(np.array([0.25, 0.75]))
    fam = rs.build_threshold_family(h, [0.5])
    assert list(fam.matrix[0]) == [0.0, 1.0]
    all_zero = rs.build_threshold_family(h, [1.0])
    assert not np.any(all_zero.matrix[0])
    const1 = rs.build_threshold_family(h, [0.0])
    assert np.all(const1.matrix[0] == 1.0)
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
    assert composed.matrix[composed.rows].tobytes() == rows.tobytes()
    assert list(composed.descriptors) == descriptors
    assert set(composed.labels) == {rs.ComplexityLabel(s1, 1)}


def spread(a, b, out=None):
    """max(a, b) + (a - b)^2: commutative and idempotent, and above 1 where
    a large value meets a distant one."""
    diff = np.subtract(a, b)
    return np.add(np.maximum(a, b, out=out), diff * diff, out=out)


def combinator_spread():
    return rs.Combinator("spread", 2, 0, spread, semilattice=True)


def test_compose_level_range_check_names_the_inputs():
    def doubled(a, out=None):
        return np.multiply(2.0, a, out=out)

    base = rs.explicit_family([[0.0, 0.25], [0.75, 0.5]])
    with pytest.raises(rs.ValidationError) as err:
        rs.compose_level(base, 1, 0, [rs.Combinator("double", 1, 0, doubled)])
    assert str(err.value) == "combinator double left [0, 1] on inputs (1,)"
    # a stored pair is named by its lowest member (i, j), i < j, whether the
    # diagonal is stored ahead of it or read from the identity rows
    three = rs.explicit_family([[0.5, 0.5], [0.0, 0.25], [0.75, 0.5]])
    for catalog in ([combinator_spread()], [rs.combinator_identity(), combinator_spread()]):
        with pytest.raises(rs.ValidationError) as err:
            rs.compose_level(three, 2, 0, catalog)
        assert str(err.value) == "combinator spread left [0, 1] on inputs (1, 2)"
    # over a base with twins, the tuple names the base's members: the pair
    # of rows max(0, 2) and max(1, 1), rows 2 and 3 of the base
    twins = rs.compose_level(three, 2, 1, [rs.combinator_max()])
    assert twins.rows.tolist() == [0, 1, 2, 1, 3, 4, 2, 4, 5]
    with pytest.raises(rs.ValidationError) as err:
        rs.compose_level(twins, 2, 0, [combinator_spread()])
    assert str(err.value) == "combinator spread left [0, 1] on inputs (2, 4)"


def test_compose_level_refuses_nan_after_every_block_is_checked():
    def root(a, out=None):  # NaN where a < 0.4
        with np.errstate(invalid="ignore"):
            return np.sqrt(np.subtract(a, 0.4, out=out), out=out)

    def doubled(a, out=None):
        return np.multiply(2.0, a, out=out)

    base = rs.explicit_family([[0.25, 0.75], [0.5, 0.5]])
    nan = rs.Combinator("root", 1, 0, root)
    with pytest.raises(rs.ValidationError, match=r"^family values must be finite"):
        rs.compose_level(base, 1, 0, [nan])
    # a later block outside [0, 1] is named before an earlier NaN row
    with pytest.raises(rs.ValidationError, match=r"^combinator double left \[0, 1\] on inputs \(0,\)"):
        rs.compose_level(base, 1, 0, [nan, rs.Combinator("double", 1, 0, doubled)])
    # and so is a later pair block, by its pair
    wide = rs.explicit_family([[0.0, 0.75], [1.0, 0.5]])
    named = r"^combinator spread left \[0, 1\] on inputs \(0, 1\)"
    with pytest.raises(rs.ValidationError, match=named):
        rs.compose_level(wide, 2, 0, [nan, combinator_spread()])
    with pytest.raises(rs.ValidationError, match=r"^family values must be finite"):
        rs.compose_level(wide, 2, 1, [nan, rs.combinator_identity(), rs.combinator_min()])


def test_compose_level_allocates_only_its_output():
    base = rs.build_coordinate_family(rs.FiniteDomain(size=4096, bit_width=12))
    catalog = full_catalog()
    tracemalloc.start()
    try:
        composed = rs.compose_level(base, 2, 1, catalog)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the bound reads against the distinct rows: 2b + b(b - 1) of them
    assert composed.matrix.shape == (2 * 12 + 12 * 11, 4096)
    # an (m^2, N) temporary per binary combinator would put this near 1.47
    assert peak <= 1.1 * composed.matrix.nbytes


def assert_rows_in_first_member_order(family):
    """Every row is some member's, rows are stored in order of their lowest
    member, and ``firsts`` names that member."""
    rows = family.rows
    _, first_seen = np.unique(rows, return_index=True)
    assert np.array_equal(first_seen, family.firsts)
    assert np.array_equal(rows[family.firsts], np.arange(len(family.matrix)))


def assert_composes_like_the_oracle(composed, base, catalog):
    rows, descriptors = compose_rows(
        base.matrix[base.rows], base.descriptors, [(c.name, c.arity, c.fn) for c in catalog]
    )
    assert composed.matrix[composed.rows].tobytes() == rows.tobytes()
    assert list(composed.descriptors) == descriptors
    # the lazy descriptors read as the tuple of strings would
    lazy, half = composed.descriptors, len(descriptors) // 2
    assert lazy == tuple(descriptors) and lazy != tuple(descriptors[:-1])
    assert [lazy[i] for i in range(-len(lazy), 0)] == descriptors
    assert list(lazy[:half]) == descriptors[:half] and lazy[1::3] == tuple(descriptors[1::3])
    assert list(lazy + ("extra",)) == descriptors + ["extra"]
    assert_rows_in_first_member_order(composed)


@pytest.mark.parametrize("bits", [1, 2, 3, 6])
def test_coordinate_compose_stores_each_distinct_row_once(bits):
    base = rs.build_coordinate_family(rs.FiniteDomain(size=2**bits, bit_width=bits))
    composed = rs.compose_level(base, 2, 1, full_catalog())
    assert len(composed) == 2 * bits + 2 * bits**2
    assert len(composed.matrix) == 2 * bits + bits * (bits - 1)
    # coordinates are independent bits, so no two stored rows are equal
    assert len(np.unique(composed.matrix, axis=0)) == len(composed.matrix)
    assert_composes_like_the_oracle(composed, base, full_catalog())


@pytest.mark.parametrize(
    "names",
    [("negation", "min", "max"), ("min", "min"), ("max", "identity", "min"),
     ("identity", "negation", "min", "max"), ("identity", "min", "nudge", "max")],
    ids=["no-identity", "min-min", "identity-between", "full", "clipped-between-pairs"],
)
@pytest.mark.parametrize("nested", [False, True], ids=["explicit-base", "compose-base"])
def test_compose_twins_match_the_oracle(names, nested):
    def nudge(a, out=None):  # up to 1e-13 above 1, which the range check clips
        return np.add(a, 1e-13, out=out)

    rng = np.random.default_rng(23)
    # quarter values, so some base rows and some pairs coincide by value too
    base = rs.explicit_family(rng.integers(0, 5, size=(4, 6)) / 4)
    if nested:
        base = rs.compose_level(base, 2, 1, [rs.combinator_identity(), rs.combinator_max()])
        assert len(base.matrix) < len(base)
    known = dict(families.STANDARD_COMBINATORS, nudge=lambda: rs.Combinator("nudge", 1, 1, nudge))
    catalog = [known[name]() for name in names]
    composed = rs.compose_level(base, 2, 1, catalog)
    assert_composes_like_the_oracle(composed, base, catalog)
    # an appended member is a row of its own, at the end of the map
    row = np.full(6, 0.5)
    grown = composed.extended([row], ["half"], [rs.ComplexityLabel(0, 0)])
    assert len(grown) == len(composed) + 1 and grown.descriptors[-1] == "half"
    assert grown.rows.tolist() == composed.rows.tolist() + [len(composed.matrix)]
    members = np.vstack([composed.matrix[composed.rows], row])
    assert np.array_equal(grown.matrix[grown.rows], members)
    assert_rows_in_first_member_order(grown)
    # firsts and the label are extended, and equal a recount over every member
    taller = grown.extended([row], ["taller"], [rs.ComplexityLabel(3, 0)])
    recount = rs.Family._in_range(
        taller.matrix, taller.descriptors, taller.labels, taller.name, rows=taller.rows
    )
    assert np.array_equal(taller.firsts, recount.firsts) and not taller.firsts.flags.writeable
    assert taller.label == recount.label == rs.ComplexityLabel(3, 1)
    # the appended rows are range-checked
    for bad in (np.full(6, 1.5), np.full(6, np.nan)):
        with pytest.raises(rs.ValidationError, match=r"^family values must be finite"):
            composed.extended([row, bad], ["half", "bad"], [rs.ComplexityLabel(0, 0)] * 2)


def dyadic_instance(rng, n):
    """g and h on quarters and a distribution on sixteenths, so that every
    correlation below is exact in doubles, in any summation order, and
    ties between members are exact."""
    g = rs.BoundedFn(rng.integers(0, 5, size=n) / 4)
    h = rs.BoundedFn(rng.integers(0, 5, size=n) / 4)
    return g, h, rs.Distribution(rng.multinomial(16, np.ones(n) / n) / 16)


def twin_family(rng, n, nested):
    """A compose family over quarter-valued base rows, some of them equal:
    twins planted by the structural rule and by the base."""
    members = rng.integers(0, 5, size=(int(rng.integers(1, 4)), n)) / 4
    if rng.uniform() < 0.5:
        members = np.vstack([members, members[:1]])
    family = rs.explicit_family(members)
    catalog = full_catalog()
    for _ in range(1 + nested):
        entries = [catalog[i] for i in rng.permutation(4)[: int(rng.integers(1, 5))]]
        family = rs.compose_level(family, 2, 1, entries)
    return family


def distance_loop(member_rows, p, q):
    """(max_f |E_p f - E_q f|, its lowest member) by a plain loop."""
    best = (-1.0, None)
    for i, row in enumerate(member_rows):
        gap = abs(sum(f * (a - b) for f, a, b in zip(row, p, q)))
        if gap > best[0]:
            best = (gap, i)
    return best


def test_best_response_and_distance_on_twins_match_plain_loops():
    st = hyp.strategies

    @hyp.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), nested=st.booleans())
    def check(seed, n, nested):
        rng = np.random.default_rng(seed)
        family = twin_family(rng, n, nested)
        members = family.matrix[family.rows].tolist()
        g, h, d = dyadic_instance(rng, n)
        br = rs.best_response(family, g, h, d)
        assert (br.index, br.sign, br.correlation) == brute_best_response(
            members, g.values.tolist(), h.values.tolist(), d.weights.tolist()
        )
        _, _, q = dyadic_instance(rng, n)
        fd = rs.family_distance(family, d, q)
        assert (fd.value, fd.index) == distance_loop(members, d.weights, q.weights)

    check()


def test_audits_read_a_twin_family_as_its_members():
    """multicalibration_check and multicalibrate sum each row in point order,
    so a compose family and the explicit family of its members give the same
    audit and the same run, twins reported at their lowest member."""
    rng = np.random.default_rng(29)
    steps = 0
    for _ in range(20):
        n = int(rng.integers(2, 24))
        family = twin_family(rng, n, nested=bool(rng.integers(2)))
        flat = rs.explicit_family(family.matrix[family.rows])
        # a target that leans on one member, so multicalibrate has work
        lean = family.matrix[family.rows[int(rng.integers(len(family)))]]
        g = rs.BoundedFn(np.clip(0.1 + 0.8 * lean * rng.uniform(size=n), 0.0, 1.0))
        h = rs.BoundedFn(rng.integers(0, 4, size=n) / 4)
        d = random_distribution(rng, n)
        assert rs.multicalibration_check(g, h, d, family, 0.05) == rs.multicalibration_check(
            g, h, d, flat, 0.05
        )
        (h1, t1), (h2, t2) = (rs.multicalibrate(g, d, f, 0.1) for f in (family, flat))
        assert h1.values.tobytes() == h2.values.tobytes()
        assert [r.member_index for r in t1.records] == [r.member_index for r in t2.records]
        assert [r.correlation for r in t1.records] == [r.correlation for r in t2.records]
        steps += len(t1.records)
    assert steps > 30


def random_nesting_levels(rng):
    """Level matrices of a random chain: each level holds the rows below it,
    shuffled, some duplicated and some zeros written as -0.0, plus new
    rows.  A third of the chains then move one entry of a lower level by
    one ulp, and a sixth drop the first row of an upper level if it has
    another (a level is never emptied)."""
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
        if len(levels[j]) > 1:
            levels[j] = levels[j][1:]
    return levels


def ladder_verdict(levels):
    """None when GradedLadder accepts the levels, else the level it names."""
    try:
        rs.GradedLadder([rs.explicit_family(level) for level in levels])
    except rs.ValidationError as err:
        return int(re.search(r"level (\d+) has a member missing", str(err)).group(1))
    return None


def count_byte_tests(monkeypatch):
    """A list that gains one entry per call to GradedLadder's exact byte test."""
    calls = []
    exact = families._missing_by_bytes
    monkeypatch.setattr(
        families, "_missing_by_bytes", lambda rows, upper: calls.append(1) or exact(rows, upper)
    )
    return calls


def test_ladder_nesting_matches_the_bytes_rule(monkeypatch):
    byte_tests = count_byte_tests(monkeypatch)
    # seed 37 drew a one-row upper level for the row-drop defect
    for seed in (31, 37):
        rng = np.random.default_rng(seed)
        verdicts = []
        for _ in range(300):
            levels = random_nesting_levels(rng)
            expected = ladder_nested_bytes(levels)
            assert ladder_verdict(levels) == expected
            verdicts.append(expected)
        assert verdicts.count(None) > 100 and len(set(verdicts)) > 2
    # the shuffled chains are not leading-row chains, so the byte rule ran
    assert byte_tests


def test_ladder_byte_rule_confirms_every_hash_hit(monkeypatch):
    # every row hashes alike, so only the exact compare tells rows apart
    monkeypatch.setattr(families, "hash", lambda key: 0, raising=False)
    # the chains of test_ladder_nesting_matches_the_bytes_rule
    rng = np.random.default_rng(31)
    for _ in range(300):
        levels = random_nesting_levels(rng)
        assert ladder_verdict(levels) == ladder_nested_bytes(levels)


def test_ladder_byte_rule_makes_no_family_sized_copy():
    rng = np.random.default_rng(43)
    upper = rng.uniform(size=(64, 4096))
    upper[rng.uniform(size=upper.shape) < 0.1] = 0.0
    lower = upper[rng.permutation(len(upper))]
    lower[lower == 0.0] = -0.0
    tracemalloc.start()
    try:
        missing = families._missing_by_bytes(lower, upper)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not missing
    # rows are hashed and compared one at a time: copies of both matrices
    # with -0.0 made 0.0 would be twice the upper matrix's bytes
    assert peak < upper.nbytes // 2


def test_ladder_builds_stay_on_the_leading_row_path(monkeypatch):
    """No ladder a config or a supersimulator builds reaches the exact byte
    test: chains composed with growing catalogs nest by the leading-row
    compare.  A shuffled chain is still accepted, by the byte test."""
    byte_tests = count_byte_tests(monkeypatch)
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
    assert byte_tests == []
    # the same chain with every level's members shuffled
    rng = np.random.default_rng(17)
    rs.GradedLadder(
        [rs.explicit_family(lvl.matrix[lvl.rows][rng.permutation(len(lvl))]) for lvl in levels]
    )
    assert len(byte_tests) == 3


COMBINATOR_NAMES = ("identity", "negation", "min", "max")


def random_ladder_spec(rng, bits):
    """A ladder spec over 2**bits points: compose levels over one base
    (coordinate, thresholds of the target, or explicit rows) with a
    reordered catalog, prefixes of it growing and (s1, s2) filters that may
    drop entries, sometimes the base itself as the lowest level, a repeated
    level, levels over a second base, or the levels shuffled."""
    n = 2**bits

    def base_spec():
        kind = rng.integers(3)
        if kind == 0:
            return {"builder": "coordinate"}
        if kind == 1:
            grid = sorted(float(t) for t in np.round(rng.uniform(size=rng.integers(1, 4)), 2))
            return {"builder": "threshold", "grid": grid}
        members = rng.integers(0, 2, size=(int(rng.integers(1, 4)), n)).astype(float)
        return {"builder": "explicit", "members": members.tolist()}

    def chain(base):
        catalog = [str(c) for c in rng.permutation(COMBINATOR_NAMES)[: rng.integers(1, 5)]]
        count = int(rng.integers(1, 5))
        sizes = np.sort(rng.integers(1, len(catalog) + 1, size=count))
        s1s = np.sort(rng.choice([1, 2], size=count, p=[0.3, 0.7]))
        s2s = np.sort(rng.choice([0, 1], size=count, p=[0.2, 0.8]))
        return [
            {"builder": "compose", "base": dict(base), "s1": int(s1), "s2": int(s2),
             "catalog": catalog[:size]}
            for size, s1, s2 in zip(sizes, s1s, s2s)
        ]

    base = base_spec()
    levels = chain(base)
    if rng.uniform() < 0.5:
        levels.insert(0, dict(base))
    if rng.uniform() < 0.3:
        i = int(rng.integers(len(levels)))
        levels.insert(i, json.loads(json.dumps(levels[i])))
    if rng.uniform() < 0.2:
        levels += chain(base_spec())
    if rng.uniform() < 0.2:
        levels = [levels[i] for i in rng.permutation(len(levels))]
    return {"levels": levels, "pad_to": len(levels) + int(rng.integers(0, 3))}


def ladder_outcome(build):
    """Every level's matrix bytes, descriptors, labels and name, and the
    ladder's name and depth; or the error's type and message."""
    try:
        ladder = build()
    except rs.RegsimError as exc:
        return type(exc).__name__, str(exc)
    return ladder.name, ladder.depth, [
        (lvl.matrix.tobytes(), lvl.rows.tobytes(), lvl.descriptors, lvl.labels, lvl.label,
         lvl.name)
        for lvl in ladder.levels
    ]


def ladder_context(bits, rng):
    ctx = ConfigContext(rs.FiniteDomain(size=2**bits, bit_width=bits), seed=None)
    ctx.target = rs.BoundedFn(np.round(rng.uniform(size=2**bits), 2))
    return ctx


def test_one_build_ladder_matches_level_by_level_builds():
    rng = np.random.default_rng(41)
    built = views = 0
    for _ in range(200):
        bits = int(rng.integers(1, 4))
        spec = random_ladder_spec(rng, bits)
        ctx = ladder_context(bits, rng)
        got = ladder_outcome(lambda: build_ladder(spec, ctx, "config.ladder"))
        assert got == ladder_outcome(lambda: ladder_level_by_level(spec, ctx))
        if len(got) == 3:
            built += 1
            ladder = build_ladder(spec, ctx, "config.ladder")
            views += sum(lvl.matrix.base is not None for lvl in ladder.levels)
    assert built > 60 and views > 30


def threshold_spec(grid, source):
    return {"builder": "threshold", "grid": grid, "source": source}


def test_random_sources_are_drawn_where_a_level_by_level_build_draws(monkeypatch):
    # 1[h > 1] is the zero row whatever h is drawn, so the chain is nested
    # however the draws fall, while the top level's middle row reads the
    # fourth draw of the ladder
    random, zero = {"kind": "random"}, threshold_spec([1.0], {"kind": "random"})
    config = {
        "domain": {"size": 16},
        "algorithm": "supersim-expanding",
        "seed": 7,
        "target": {"kind": "random"},
        "distributions": {"d": {"kind": "uniform"}},
        "ladder": {
            "levels": [
                zero,
                zero,
                {"builder": "compose", "base": zero, "s1": 1, "s2": 1,
                 "catalog": ["identity", "negation"]},
                threshold_spec([0.0, 0.5, 1.0], random),
            ],
            "pad_to": 40,
        },
        "growth": {"kind": "shift", "by": 1},
        "params": {"epsilon": 0.1},
    }
    plan, _ = plan_config(config)
    assert plan.ladder[0] is not plan.ladder[1]  # a spec that draws is never shared
    report = run_config(config).report
    monkeypatch.setattr(config_mod, "build_ladder", ladder_level_by_level)
    oracle_plan, _ = plan_config(config)
    oracle = run_config(config).report
    assert ladder_outcome(lambda: plan.ladder) == ladder_outcome(lambda: oracle_plan.ladder)
    for r in (report, oracle):
        r.pop("wall_time_s")
    assert "error" not in report and report == oracle


def test_supersim_ladder_composes_once(monkeypatch):
    calls = {"compose": 0, "coordinate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(families, "compose_level", counted("compose", families.compose_level))
    monkeypatch.setattr(config_mod, "compose_level", families.compose_level)
    monkeypatch.setattr(
        config_mod, "build_coordinate_family",
        counted("coordinate", config_mod.build_coordinate_family),
    )
    byte_tests = count_byte_tests(monkeypatch)
    catalogs = [["identity", "negation"], ["identity", "negation", "min"], list(COMBINATOR_NAMES)]
    coordinate = {"builder": "coordinate"}
    spec = {
        "levels": [coordinate] + [
            {"builder": "compose", "base": coordinate, "s1": 2 if len(c) > 2 else 1, "s2": 1,
             "catalog": c}
            for c in catalogs
        ],
        "pad_to": 13,
    }
    ctx = ConfigContext(rs.FiniteDomain(size=256, bit_width=8), seed=None)
    ladder = build_ladder(spec, ctx, "config.ladder")
    assert calls == {"compose": 1, "coordinate": 1} and byte_tests == []
    top = ladder[3]
    assert ladder[0].name == "coordinates(8 bits)" and len(top) == 8 + 8 + 64 + 64
    for lvl in (ladder[1], ladder[2]):
        assert np.shares_memory(lvl.matrix, top.matrix) and not lvl.matrix.flags.writeable
        assert lvl.descriptors == top.descriptors[: len(lvl)]
    assert all(ladder[i] is top for i in range(4, 13))


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
    # the label action bisects the labels, so they must be a ladder's
    lo, hi = rs.ComplexityLabel(1, 1), rs.ComplexityLabel(2, 2)
    for labels in ([lo, hi], [lo, hi, lo]):
        with pytest.raises(rs.ValidationError, match="growth labels"):
            rs.GrowthMap(3, [0, 1, 2], labels)
    assert rs.GrowthMap(3, [1, 2, 2], [lo, lo, hi]).label_map(2, 1) == (2, 2)


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
