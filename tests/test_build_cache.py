"""The library's one build cache (``domain._cached``): k-fold layouts,
config ladders that read only the domain, and recurrence bounds share one
least-recently-used map and one byte budget, and a warm run reports the
same bytes as a cold one."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import regsim as rs
from regsim import config as config_mod
from regsim import domain, families, kfold, supersim
from regsim.config import _reads_only_the_domain, plan_config
from regsim.demos import demo_config, demo_names
from regsim.runner import run_config
from conftest import empty_build_cache
from test_families import random_ladder_spec

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from reaudit import check_run, report_digest  # noqa: E402
from workloads import WORKLOADS, generate, generate_pool  # noqa: E402


def report_bytes(config):
    report = run_config(config).report
    report.pop("wall_time_s", None)
    return json.dumps(report, sort_keys=True).encode()


@pytest.fixture
def ladder_builds(monkeypatch):
    """Counts of compose_level calls and GradedLadder constructions."""
    calls = {"compose_level": 0, "GradedLadder": 0}
    compose, init = families.compose_level, families.GradedLadder.__init__

    def counted_compose(*args, **kwargs):
        calls["compose_level"] += 1
        return compose(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls["GradedLadder"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(families, "compose_level", counted_compose)
    monkeypatch.setattr(config_mod, "compose_level", counted_compose)
    monkeypatch.setattr(families.GradedLadder, "__init__", counted_init)
    return calls


def laddered_configs():
    """Every demo with a ladder, and the first instance of every kind of
    the benchmark that reads one."""
    configs = {name: demo_config(name) for name in demo_names() if "ladder" in demo_config(name)}
    for workload in ("supersim-ladder", "kfold-proxy"):
        for pos, kind in enumerate(WORKLOADS[workload]):
            if kind.algorithm in ("supersim-expanding", "supersim-shrinking", "characterize-super"):
                configs[kind.name] = generate(workload, pos, 0, seed=1).config()
    return configs


@pytest.mark.parametrize("name", sorted(laddered_configs()))
def test_a_warm_run_builds_no_ladder_and_reports_the_same_bytes(name, fresh_cache, ladder_builds):
    config = laddered_configs()[name]
    cold = report_bytes(config)
    assert ladder_builds["GradedLadder"] >= 1
    ladder_builds.update(compose_level=0, GradedLadder=0)
    assert report_bytes(config) == cold
    assert ladder_builds == {"compose_level": 0, "GradedLadder": 0}
    # one unpadded ladder is kept, under the domain and the canonical JSON
    # of the levels list
    (key,) = [key for key in fresh_cache if key[0] == "ladder"]
    dom, levels = config["domain"], config["ladder"]["levels"]
    assert key == ("ladder", dom["size"], dom.get("bit_width"), json.dumps(levels, sort_keys=True))
    assert fresh_cache[key][0].depth == len(levels)


def test_specs_that_differ_only_in_pad_to_keep_one_ladder(monkeypatch, fresh_cache):
    """supersim-ladder's expanding and shrinking kinds list the same levels
    at N = 256 and 512 and pad them to different depths: one unpadded
    ladder per N is kept, and each run reports the bytes it reports with
    an empty cache."""
    configs = [generate("supersim-ladder", pos, 0, seed=1).config()
               for pos in range(len(WORKLOADS["supersim-ladder"]))]
    assert len({json.dumps(c["ladder"]["levels"]) for c in configs}) == 1
    assert len({c["ladder"]["pad_to"] for c in configs}) == 2
    warm = [report_bytes(config) for config in configs]
    kept = {key[1]: value for key, (value, _) in fresh_cache.items() if key[0] == "ladder"}
    assert sorted(kept) == [256, 512, 1024]
    for config in configs:
        ladder = plan_config(config)[0].ladder
        top = kept[config["domain"]["size"]]
        assert ladder.depth == config["ladder"]["pad_to"] > top.depth
        assert ladder.levels[: top.depth] == top.levels
    for config, got in zip(configs, warm):
        empty_build_cache(monkeypatch)
        assert report_bytes(config) == got


def threshold(source=None):
    spec = {"builder": "threshold", "grid": [0.25, 0.5, 0.75]}
    if source is not None:
        spec["source"] = source
    return spec


@pytest.mark.parametrize(
    "level",
    [threshold(), threshold("target"), threshold({"kind": "random"})],
    ids=["target-by-default", "target", "random"],
)
def test_ladders_that_read_the_target_or_draw_are_built_every_run(
    level, monkeypatch, fresh_cache, ladder_builds
):
    rng = np.random.default_rng(5)
    targets = [np.round(rng.uniform(size=8), 2).tolist() for _ in range(2)]

    def config(target):
        return {
            "domain": {"size": 8, "bit_width": 3},
            "algorithm": "supersim-expanding",
            "seed": 3,
            "target": target,
            "distributions": {"d": {"kind": "uniform"}},
            "ladder": {"levels": [level], "pad_to": 40},
            "growth": {"kind": "shift", "by": 1},
            "params": {"epsilon": 0.1},
        }

    warm = []
    for target in targets + targets:
        ladder_builds["GradedLadder"] = 0
        warm.append(report_bytes(config(target)))
        assert ladder_builds["GradedLadder"] == 1
    assert not [key for key in domain._cache if key[0] == "ladder"]
    for target, got in zip(targets + targets, warm):
        empty_build_cache(monkeypatch)
        assert report_bytes(config(target)) == got
    assert warm[0] != warm[1]


def test_a_growth_map_is_kept_with_its_ladder(fresh_cache):
    """A second plan of a config whose ladder reads the domain alone reuses
    the first plan's growth map, kept under the ladder's key, ``pad_to``
    and the canonical growth JSON; one over a ladder that reads the target
    is built every plan and never kept."""
    config = demo_config("supersim-expanding")
    first = plan_config(config)[0]
    assert plan_config(demo_config("supersim-expanding"))[0].growth is first.growth
    (ladder_key,) = [key for key in fresh_cache if key[0] == "ladder"]
    text = json.dumps(config["growth"], sort_keys=True)
    key = ("growth", ladder_key, config["ladder"]["pad_to"], text)
    charge = config_mod._GROWTH_LEVEL_BYTES * 10 + sys.getsizeof(text)
    assert fresh_cache[key] == (first.growth, charge)
    # another pad_to is another ladder depth, so another map
    deeper = plan_config({**config, "ladder": {**config["ladder"], "pad_to": 12}})[0].growth
    assert deeper.depth == 12 and deeper is not first.growth
    config["ladder"]["levels"] = [threshold()]
    kept = set(fresh_cache)
    maps = [plan_config(config)[0].growth for _ in range(2)]
    assert maps[0] is not maps[1] and maps[0].table == maps[1].table
    assert set(fresh_cache) == kept


def kept_ladder(bits, levels):
    """The ladder ``build_ladder`` plans for ``levels`` (with no growth map
    beside it in the cache), and its cache key."""
    ctx = config_mod.ConfigContext(rs.FiniteDomain(size=2**bits, bit_width=bits), seed=None)
    ladder = config_mod.build_ladder({"levels": levels}, ctx, "config.ladder")
    return ladder, ("ladder", 2**bits, bits, json.dumps(levels, sort_keys=True))


def compose(catalog):
    return {"builder": "compose", "base": {"builder": "coordinate"}, "s1": 2, "s2": 1,
            "catalog": catalog}


def test_layouts_and_ladders_share_one_budget(monkeypatch, fresh_cache):
    def total():
        return sum(size for _, size in domain._cache.values())

    ladder, key = kept_ladder(6, [compose(["identity"]), compose(["identity", "min"])])
    # each level's matrix, member map and firsts, and the key
    assert fresh_cache[key][1] == sum(
        lvl.matrix.nbytes + lvl.rows.nbytes + lvl.firsts.nbytes for lvl in ladder.levels
    ) + sys.getsizeof(key[3])
    # explicit members spell each double in up to ~24 characters of JSON,
    # so their key outweighs the matrix, and is charged
    rng = np.random.default_rng(11)
    explicit = {"builder": "explicit", "members": rng.uniform(size=(3, 64)).tolist()}
    ladder, key = kept_ladder(6, [explicit])
    assert len(key[3]) > ladder[0].matrix.nbytes
    assert fresh_cache[key][1] >= len(key[3]) + ladder[0].matrix.nbytes
    assert total() == sum(size for _, size in fresh_cache.values())
    fresh_cache = empty_build_cache(monkeypatch)
    ladder, key = kept_ladder(6, [compose(["identity"]), compose(["identity", "min"])])
    for lvl in ladder.levels:
        for arr in (lvl.matrix, lvl.rows, lvl.firsts):
            assert not arr.flags.writeable
    budget = fresh_cache[key][1] + 1500
    monkeypatch.setattr(domain, "_CACHE_BYTES", budget)
    order = []
    for step in range(6):
        if step % 2:
            kfold._type_table(2, 20 + step)
            order.append(("_type_table", 2, 20 + step))
        else:
            order.append(kept_ladder(6, [compose(["identity"] if step else ["identity", "min"])])[1])
        assert total() <= budget
        assert list(fresh_cache)[-1] == order[-1]
    # the least recently used entries left first, layouts and ladders alike
    by_last_use = list(dict.fromkeys(reversed(order)))[::-1]
    kept = list(fresh_cache)
    assert kept == by_last_use[len(by_last_use) - len(kept):] and len(kept) < len(by_last_use)
    assert {key[0] for key in kept} == {"ladder", "_type_table"}
    # a ladder above the budget is built, used and not kept
    before = list(fresh_cache)
    big, big_key = kept_ladder(7, [compose(["identity", "min", "max"])])
    assert len(big[0]) == 7 + 2 * 49 and big_key not in fresh_cache
    assert list(fresh_cache) == before
    assert kept_ladder(7, [compose(["identity", "min", "max"])])[0] is not big


def test_a_failed_ladder_build_is_not_kept(fresh_cache):
    config = {
        "domain": {"size": 4, "bit_width": 2},
        "algorithm": "supersim-expanding",
        "target": [0.5] * 4,
        "distributions": {"d": {"kind": "uniform"}},
        "ladder": {"levels": [compose(["identity", "min"]), compose(["identity"])]},
        "growth": {"kind": "identity"},
        "params": {"epsilon": 0.1},
    }
    for _ in range(2):
        _, problems = plan_config(config)
        assert problems == [
            "config.ladder: ladder levels not nested: level 0 has a member missing from level 1"
        ]
    assert not fresh_cache


def test_only_ladders_that_read_the_domain_alone_are_kept():
    rng = np.random.default_rng(47)
    for _ in range(100):
        spec = random_ladder_spec(rng, int(rng.integers(1, 4)))
        # the random specs' threshold bases read the target
        assert _reads_only_the_domain(spec) == ('"builder": "threshold"' not in json.dumps(spec))
    level = {"builder": "compose", "base": {"builder": "coordinate"}, "s1": 1, "s2": 1,
             "catalog": ["identity"]}
    assert _reads_only_the_domain({"levels": [level], "pad_to": 3})
    assert _reads_only_the_domain({"levels": [threshold([0.5, 0.25])]})
    for other in (threshold(), threshold("target"), threshold({"kind": "random"}),
                  {"builder": "compose", "base": threshold(), "s1": 1, "s2": 1, "catalog": []}):
        assert not _reads_only_the_domain({"levels": [level, other]})
    # values the builders treat apart from their JSON twins are not kept
    for odd in ((0.25, 0.5), [np.float64(0.25)], np.int64(1), np.array([0.5, 0.5])):
        spec = {"levels": [{"builder": "threshold", "grid": [0.5], "source": odd}]}
        assert not _reads_only_the_domain(spec)
    assert not _reads_only_the_domain({"levels": [{1: "coordinate"}]})
    # an int of more than 64 bits leaves the ladder unkept (10**5000 is too
    # long even for json.dumps), and the builder still names the problem
    assert _reads_only_the_domain({"levels": [{"builder": "coordinate", "note": 2**64 - 1}]})
    for wide in (2**64, -(2**64), 10**5000):
        assert not _reads_only_the_domain({"levels": [{"builder": "coordinate", "note": wide}]})
    # a list or dict inside itself has no JSON form and is not plain; a
    # value shared by two places is, since neither holds the other
    members = [[1.0, 1.0]]
    members.append(members)
    looped = {"builder": "explicit"}
    looped["members"] = [looped]
    for level in ({"builder": "explicit", "members": members}, looped):
        assert not _reads_only_the_domain({"levels": [level]})
    shared = [1.0, 1.0]
    assert _reads_only_the_domain({"levels": [{"builder": "explicit", "members": [shared]},
                                              {"builder": "explicit", "members": [shared, shared]}]})
    spec = {"levels": [{"builder": "coordinate", "note": 10**5000}]}
    for _ in range(2):
        _, problems = plan_config({
            "domain": {"size": 2, "bit_width": 1},
            "algorithm": "supersim-expanding",
            "target": [0.5, 0.5],
            "distributions": {"d": {"kind": "uniform"}},
            "ladder": spec,
            "growth": {"kind": "identity"},
            "params": {"epsilon": 0.1},
        })
        assert problems == [
            "config.ladder.levels[0].note: unknown field (fail-closed: check spelling)"
        ]


def test_recurrence_bounds_are_computed_once_per_input(fresh_cache):
    ladder = rs.GradedLadder([
        rs.explicit_family([[1.0, 1.0]], label=rs.ComplexityLabel(1, 1)),
        rs.explicit_family([[1.0, 1.0], [0.0, 1.0]], label=rs.ComplexityLabel(2, 3)),
    ]).padded(6)
    growth = rs.GrowthMap.shift(ladder, 1)
    first = rs.recurrence_bound(growth, 20, mode="expanding", epsilon=0.1)
    assert rs.recurrence_bound(growth, 20, mode="expanding", epsilon=0.1) is first
    assert rs.recurrence_bound(rs.GrowthMap.shift(ladder, 1), 20, epsilon=0.1) is first
    (key,) = fresh_cache
    assert fresh_cache[key][1] == supersim._LABEL_BYTES * 21
    # the key is a digest: it keeps none of the growth map's tables alive
    assert key[0] == "recurrence_bound" and type(key[1]) is bytes and len(key[1]) == 32
    # the same table with other labels, or other rounds, is another bound
    relabelled = rs.GrowthMap(6, growth.table, [rs.ComplexityLabel(1, 1)] * 6)
    assert rs.recurrence_bound(relabelled, 20, epsilon=0.1) != first
    assert rs.recurrence_bound(growth, 19, epsilon=0.1).labels == first.labels[:20]
    sched = rs.ErrorSchedule([0.2, 0.1])
    shrinking = rs.recurrence_bound(growth, 5, mode="shrinking", schedule=sched)
    assert rs.recurrence_bound(growth, 5, mode="shrinking", schedule=rs.ErrorSchedule([0.2, 0.1])) is shrinking
    assert rs.recurrence_bound(growth, 5, mode="shrinking", schedule=rs.ErrorSchedule([0.2])) != shrinking
    assert len(fresh_cache) == 5


def test_the_supersim_ladder_pool_passes_its_gate_cold_and_warm(fresh_cache):
    """The benchmark's own gate over the seed-1 supersim-ladder pool, run
    with an empty build cache and then warm: every run passes
    ``reaudit.check_run``, and every report digest repeats."""
    pool = [inst for kind in generate_pool("supersim-ladder", 1) for inst in kind]
    digests = []
    for _ in range(2):
        passed = []
        for inst in pool:
            outcome = run_config(inst.config())
            assert check_run(inst, outcome.exit_code, outcome.report) == [], inst.ident
            passed.append(report_digest(outcome.report))
        digests.append(passed)
    assert digests[0] == digests[1]
