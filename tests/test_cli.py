import copy
import functools
import hashlib
import json
import operator
import random

import pytest

import regsim.runner as runner_mod
from gap_golden import DIGESTS_PATH, canonical_lines, demo_digests
from regsim.cli import main
from regsim.config import validate_config
from regsim.demos import demo_config, demo_names
from regsim.errors import InternalContractError
from regsim.runner import run_config


def minimal_boost_config(**overrides):
    config = {
        "domain": {"size": 2},
        "algorithm": "boost",
        "target": [1.0, 0.0],
        "distributions": {"d": {"kind": "uniform"}},
        "family": {"builder": "explicit", "members": [[0.0, 1.0]]},
        "params": {"epsilon": 0.1},
    }
    config.update(overrides)
    return config


def test_minimal_boost_run_exit_zero():
    outcome = run_config(minimal_boost_config())
    assert outcome.exit_code == 0
    assert outcome.report["summary"]["passed"]
    assert 0 <= outcome.report["payload"]["updates"] <= 3


def test_epsilon_out_of_range_exit_one():
    outcome = run_config(minimal_boost_config(params={"epsilon": 0.7}))
    assert outcome.exit_code == 1
    problems = outcome.report["error"]["problems"]
    assert any("epsilon must lie in (0, 0.5)" in p for p in problems)


def test_verify_with_failing_hypothesis_exit_one_names_audit():
    config = {
        "domain": {"size": 2},
        "algorithm": "verify41",
        "distributions": {"d0": [1.0, 0.0], "d1": [0.0, 1.0]},
        "family": {"builder": "explicit", "members": [[1.0, 1.0], [0.0, 1.0]]},
        "simulator": [0.9, 0.1],
        "params": {"epsilon": 0.05, "gamma": 0.05, "k": 2},
    }
    outcome = run_config(config)
    assert outcome.exit_code == 1
    assert "regularity" in outcome.report["error"]["message"]


def test_unknown_field_rejected():
    problems = validate_config(minimal_boost_config(epsilonn=0.1))
    assert any("unknown field" in p for p in problems)


def test_validate_lists_every_violation():
    config = {
        "domain": {"size": 2},
        "algorithm": "characterize",
        "params": {"epsilon": 0.7, "k": 0},
    }
    problems = validate_config(config)
    assert any("k must be >= 1" in p for p in problems)
    assert any("epsilon" in p for p in problems)
    assert any("d0" in p for p in problems)
    assert len(problems) >= 4


@pytest.mark.parametrize(
    "key,value", [("epsilon", "abc"), ("k", "x"), ("max_iters", "5")]
)
def test_malformed_numeric_param_is_a_named_problem(key, value):
    config = demo_config("characterize-gap")
    config["params"][key] = value
    problems = validate_config(config)
    assert any(p.startswith(f"config.params.{key}:") for p in problems), problems
    outcome = run_config(config)
    assert outcome.exit_code == 1
    assert outcome.report["error"]["problems"] == problems


@pytest.mark.parametrize("algorithm", ["characterize", "characterize-super"])
@pytest.mark.parametrize("mode", ["two-proxy", "single-proxy"])
def test_characterize_large_k_small_domain(algorithm, mode):
    # N=2, k=25 has 26 types but 2^25 tuples
    config = demo_config(f"{algorithm}-gap")
    config["distributions"] = {"d0": [0.7, 0.3], "d1": [0.4, 0.6]}
    config["params"].update(k=25, mode=mode)
    outcome = run_config(config)
    assert outcome.exit_code == 0, outcome.report.get("error")


def test_characterize_k_beyond_double_precision_is_exit_one():
    config = demo_config("characterize-gap")
    config["distributions"] = {"d0": [0.7, 0.3], "d1": [0.4, 0.6]}
    config["params"]["k"] = 20000
    outcome = run_config(config)
    assert outcome.exit_code == 1
    assert "double precision" in json.dumps(outcome.report["error"])


def test_validate_valid_config_empty():
    assert validate_config(minimal_boost_config()) == []


def test_validate_non_nested_ladder_names_pair():
    config = {
        "domain": {"size": 2},
        "algorithm": "supersim-expanding",
        "target": [1.0, 0.0],
        "distributions": {"d": {"kind": "uniform"}},
        "ladder": {
            "levels": [
                {"builder": "explicit", "members": [[1.0, 1.0]]},
                {"builder": "explicit", "members": [[0.0, 1.0]]},
            ]
        },
        "growth": {"kind": "shift", "by": 1},
        "params": {"epsilon": 0.1},
    }
    problems = validate_config(config)
    assert any("not nested" in p and "level 0" in p for p in problems)


def test_seed_required_for_random_generators():
    config = minimal_boost_config(distributions={"d": {"kind": "random"}})
    problems = validate_config(config)
    assert any("seed is mandatory" in p for p in problems)
    config["seed"] = 1
    assert validate_config(config) == []


def test_exit_code_two_on_failed_inequality(monkeypatch):
    def fake_execute(plan):
        return {}, [{"name": "forced", "lhs": 1.0, "rhs": 0.0, "slack": -1.0, "pass": False}]

    monkeypatch.setattr(runner_mod, "_execute", fake_execute)
    outcome = run_config(minimal_boost_config())
    assert outcome.exit_code == 2
    assert outcome.report["summary"]["failed"] == ["forced"]


def test_exit_code_three_on_internal_contract(monkeypatch):
    def fake_execute(plan):
        raise InternalContractError("library bug")

    monkeypatch.setattr(runner_mod, "_execute", fake_execute)
    outcome = run_config(minimal_boost_config())
    assert outcome.exit_code == 3
    assert outcome.report["error"]["kind"] == "internal-contract"


def test_seed_override_changes_instance():
    config = minimal_boost_config(
        target={"kind": "random"},
        distributions={"d": {"kind": "random"}},
        seed=1,
    )
    a = run_config(config, seed_override=2).report["config"]["seed"]
    assert a == 2


def test_cli_run_and_validate_roundtrip(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_boost_config()))
    assert main(["validate", str(path)]) == 0
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["summary"]["passed"]


def test_cli_validate_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(minimal_boost_config(params={"epsilon": 0.7})))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert "epsilon must lie in (0, 0.5)" in captured.out


def test_cli_unreadable_file():
    assert main(["validate", "/nonexistent/config.json"]) == 1


def test_cli_demo_unknown_name(capsys):
    assert main(["demo", "no-such-demo"]) == 1


def test_cli_demo_list(capsys):
    assert main(["demo", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(demo_names()) == set(out)


def test_all_demos_run_clean(tmp_path):
    for name in demo_names():
        out = tmp_path / f"{name}.json"
        code = main(["demo", name, "--out", str(out)])
        assert code == 0, name
        report = json.loads(out.read_text())
        assert report["summary"]["passed"], name


def test_demo_reports_byte_identical_modulo_wall_time(tmp_path):
    for name in ("boost-two-point", "verify41-disjoint"):
        texts = []
        for i in range(2):
            out = tmp_path / f"{name}-{i}.json"
            assert main(["demo", name, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            report.pop("wall_time_s", None)
            texts.append(json.dumps(report, sort_keys=True, indent=2))
        assert texts[0] == texts[1]


def test_demo_reports_match_golden_digests():
    golden = json.loads(DIGESTS_PATH.read_text())
    assert demo_digests() == golden


def test_demo_config_is_deep_copied():
    a = demo_config("boost-two-point")
    a["params"]["epsilon"] = 0.4
    b = demo_config("boost-two-point")
    assert b["params"]["epsilon"] == 0.1


def test_cli_builders_and_schedule_surface(tmp_path):
    # exercises coordinate/threshold/rectangle/compose builders plus ladder,
    # growth, and schedule specs through the config path
    config = {
        "domain": {"size": 4, "bit_width": 2},
        "algorithm": "supersim-shrinking",
        "seed": 11,
        "target": {"kind": "random"},
        "distributions": {"d": {"kind": "random", "concentration": 2.0}},
        "ladder": {
            "levels": [
                {"builder": "coordinate"},
                {
                    "builder": "compose",
                    "base": {"builder": "coordinate"},
                    "s1": 2,
                    "s2": 1,
                    "catalog": ["identity", "negation", "min", "max"],
                },
            ],
            "pad_to": 30,
        },
        "growth": {"kind": "shift", "by": 1},
        "schedule": {"kind": "geometric", "start": 0.2, "factor": 0.8, "depth": 30, "floor": 0.05},
        "params": {"alpha": 0.25},
    }
    assert validate_config(config) == []
    outcome = run_config(config)
    assert outcome.exit_code == 0, outcome.report
    assert outcome.report["payload"]["pair"]["similarity"] >= 0.0

    config2 = {
        "domain": {"size": 4},
        "algorithm": "boost",
        "target": [0.9, 0.1, 0.8, 0.2],
        "distributions": {"d": {"kind": "uniform"}},
        "family": {"builder": "rectangle", "rows": 2, "cols": 2},
        "params": {"epsilon": 0.2},
    }
    assert run_config(config2).exit_code == 0

    config3 = {
        "domain": {"size": 4},
        "algorithm": "boost",
        "target": [0.9, 0.1, 0.8, 0.2],
        "distributions": {"d": {"kind": "uniform"}},
        "family": {"builder": "threshold", "source": "target", "grid": [0.25, 0.5, 0.75]},
        "params": {"epsilon": 0.2},
    }
    assert run_config(config3).exit_code == 0


def test_verify_calibration_hypothesis_named():
    # mean-matched but uncalibrated simulator: regularity passes for the
    # constant family, the calibration audit is the one that must fail
    config = {
        "domain": {"size": 2},
        "algorithm": "verify41",
        "distributions": {"d0": [1.0, 0.0], "d1": [0.0, 1.0]},
        "family": {"builder": "explicit", "members": [[0.5, 0.5]]},
        "simulator": [0.6, 0.4],
        "params": {"epsilon": 0.05, "gamma": 0.05, "k": 2},
    }
    outcome = run_config(config)
    assert outcome.exit_code == 1
    assert "calibration" in outcome.report["error"]["message"]


def test_wire_tokens_have_descriptive_aliases():
    cfg = {
        "domain": {"size": 2},
        "algorithm": "verify-two-proxy",
        "distributions": {"d0": [1.0, 0.0], "d1": [0.0, 1.0]},
        "family": {"builder": "explicit", "members": [[1.0, 1.0], [0.0, 1.0]]},
        "params": {"epsilon": 0.05, "gamma": 0.05, "k": 2},
    }
    assert validate_config(cfg) == []
    assert run_config(cfg).exit_code == 0


def demo_with(name, path, value):
    """Demo config ``name`` with the field at dotted ``path`` set to ``value``."""
    config = demo_config(name)
    *parents, key = path.split(".")
    node = config
    for part in parents:
        node = node[part]
    node[key] = value
    return config


# The fuzz case that raised MemoryError: a domain too large to allocate,
# read by a uniform distribution before any size mismatch is noticed.
HUGE_DOMAIN = demo_with("verify41-disjoint", "domain.size", 2**53 + 1)
HUGE_DOMAIN["distributions"]["d0"] = {"kind": "uniform"}


@pytest.mark.parametrize(
    "config,path",
    [
        (minimal_boost_config(domain={"size": 4}, target=[0.9, 0.1, 0.8, 0.2],
                              family={"builder": "rectangle", "rows": 2}), "config.family.cols"),
        (minimal_boost_config(distributions={"d": {"kind": "two_point", "i": 0, "p": 0.5}}),
         "config.distributions.d.j"),
        (minimal_boost_config(family={"builder": "rectangle", "rows": "a", "cols": 1}),
         "config.family.rows"),
        (minimal_boost_config(domain={"size": 2.0}), "config.domain"),
        ([1, 2], "config"),
        ("x", "config"),
        (demo_with("boost-two-point", "target", [10**400, 0]), "config.target"),
        (demo_with("boost-two-point", "params.epsilon", 10**400), "config.params.epsilon"),
        (demo_with("supersim-expanding", "ladder.pad_to", 10**30), "config.ladder.pad_to"),
        (demo_with("supersim-expanding", "ladder.pad_to", 10**9), "config.ladder.pad_to"),
        (demo_with("supersim-shrinking", "schedule",
                   {"kind": "geometric", "start": 0.1, "factor": 0.5, "depth": 10**30}),
         "config.schedule.depth"),
        (demo_with("boost-two-point", "params.epsilon", 1e-300), "config.params.epsilon"),
        (demo_with("multicalibrate-two-point", "params.epsilon", 1e-100),
         "config.params.epsilon"),
        (demo_with("verify41-disjoint", "params.gamma", 5e-324), "config.params.gamma"),
        (demo_with("supersim-shrinking", "params.alpha", 5e-324), "config.params.alpha"),
        (HUGE_DOMAIN, "config.domain.size"),
        (demo_with("supersim-shrinking", "schedule.value", 1e-300), "config.schedule"),
        (demo_with("boost-two-point", "domain.bit_width", 65), "config.domain.bit_width"),
        (demo_with("supersim-shrinking", "schedule", {"kind": "explicit", "values": [0.1, 0.2]}),
         "config.schedule"),
        (demo_with("supersim-expanding", "ladder.levels",
                   demo_config("supersim-expanding")["ladder"]["levels"][::-1]), "config.ladder"),
    ],
    ids=[
        "rectangle-without-cols", "two-point-without-j", "rows-not-a-number", "float-domain-size",
        "list", "string", "vector-int-beyond-double", "scalar-int-beyond-double",
        "pad-to-beyond-index", "pad-to-huge", "schedule-depth-huge", "epsilon-underflow",
        "multicalibrate-epsilon-overflows-bound", "gamma-subnormal", "alpha-subnormal",
        "domain-beyond-memory", "schedule-value-underflow", "bit-width-beyond-64",
        "schedule-increasing", "ladder-levels-reversed",
    ],
)
def test_malformed_builder_input_is_a_named_problem(config, path):
    problems = validate_config(config)
    assert any(p.startswith(f"{path}:") for p in problems), problems
    outcome = run_config(config)
    assert outcome.exit_code == 1
    assert outcome.report["error"]["problems"] == problems


@pytest.mark.parametrize("name", demo_names())
def test_only_multicalibrate_builds_the_point_major_copy(name, monkeypatch):
    plans, plan_config = [], runner_mod.plan_config

    def spy(config):
        plan, problems = plan_config(config)
        plans.append(plan)
        return plan, problems

    monkeypatch.setattr(runner_mod, "plan_config", spy)
    assert run_config(demo_config(name)).exit_code == 0
    (plan,) = plans
    families = [plan.family] if plan.ladder is None else list(plan.ladder.levels)
    built = ["by_point" in family.__dict__ for family in families]
    assert built == [plan.algorithm == "multicalibrate"] * len(families)


# Leaf values a config-fuzz mutation writes: wrong types, values at and past
# the edges of each range, huge integers, non-finite and underflowing floats
# (1e-300 as epsilon once raised ZeroDivisionError out of run_config).
# Small valid accuracies such as 1e-8 are left out: such a run is correct
# but takes about 1/epsilon steps.
FUZZ_VALUES = (
    None, True, False, 0, 1, -1, 2, 3, 7, 0.5, -0.5, -0.0, 0.999, 1e-300, 1e300,
    2**53 + 1, 10**30, float("inf"), float("nan"), "", "abc", "uniform", [], {},
    [0.5], [[1.0]], [1.0, 0.0], {"kind": "uniform"}, {"kind": "random"},
)


def _key_paths(node, path=()):
    """The key path of every field below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _key_paths(child, path + (key,))


def test_mutated_demo_configs_are_runs_or_named_problems():
    rng = random.Random(2012)
    names = demo_names()
    for i in range(300):
        config, edits = demo_config(names[i % len(names)]), []
        for _ in range(rng.choice((1, 1, 2))):
            *parents, key = rng.choice(list(_key_paths(config)))
            node = functools.reduce(operator.getitem, parents, config)
            if isinstance(node, dict) and rng.random() < 0.1:
                del node[key]
                edits.append((*parents, key, "deleted"))
            else:
                node[key] = copy.deepcopy(rng.choice(FUZZ_VALUES))
                edits.append((*parents, key, node[key]))
        assert isinstance(validate_config(config), list), edits
        outcome = run_config(config)
        assert outcome.exit_code in (0, 1, 2), (names[i % len(names)], edits, outcome.report)


@pytest.mark.parametrize(
    "config",
    [
        {**demo_with("supersim-expanding", "params.epsilon", 1e-3), "target": [0.5, 0.5]},
        demo_with("supersim-shrinking", "params.alpha", 1e-5),
    ],
    ids=["expanding-epsilon", "shrinking-alpha"],
)
def test_recurrence_beyond_cap_is_exit_one(config):
    outcome = run_config(config)
    assert outcome.exit_code == 1
    assert outcome.report["error"]["kind"] == "precondition"
    assert "above the cap of 65536" in outcome.report["error"]["message"]


MULTICALIBRATE_7_STEPS = minimal_boost_config(
    algorithm="multicalibrate",
    domain={"size": 4},
    target=[0.9, 0.1, 0.8, 0.2],
    family={"builder": "explicit", "members": [[1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]]},
)


@pytest.mark.parametrize(
    "config",
    [demo_config("boost-two-point"), MULTICALIBRATE_7_STEPS],
    ids=["boost", "multicalibrate"],
)
def test_user_max_iters_cap_is_exit_one(config):
    config = json.loads(json.dumps(config))
    assert run_config(config).report["payload"]["updates"] >= 2
    config["params"]["max_iters"] = 1
    outcome = run_config(config)
    assert outcome.exit_code == 1, outcome.report
    assert outcome.report["error"]["kind"] == "precondition"
    assert outcome.report["error"]["message"].startswith("params.max_iters:")


# Report digests (gap_golden canonical form) of seeded configs whose
# generators draw in a fixed order, written before the config was built
# once: a run draws the target first, then what the algorithm reads (a
# random simulator after the family), and unread fields last.
RNG_ORDER_CASES = {
    "boost-threshold-random-source": (
        {
            "domain": {"size": 8}, "algorithm": "boost", "seed": 5,
            "target": {"kind": "random"},
            "distributions": {"d": {"kind": "random"}},
            "family": {"builder": "threshold", "source": {"kind": "random"},
                       "grid": [0.2, 0.4, 0.6, 0.8]},
            "params": {"epsilon": 0.05},
        },
        "867d2bd0eac1f8acb20d352a94fdece7552c7bcb37ab3310e8e16885cf096f8c",
    ),
    "verify41-random-simulator": (
        {
            "domain": {"size": 4}, "algorithm": "verify41", "seed": 54,
            "distributions": {"d0": {"kind": "random"}, "d1": {"kind": "random"}},
            "family": {"builder": "threshold", "source": {"kind": "random"}, "grid": [0.5]},
            "simulator": {"kind": "random"},
            "params": {"epsilon": 0.09, "gamma": 0.09, "k": 2},
        },
        "c4558de40635d7b5dea3ac670664884233bc55258c06e88a38f68edc08b8c240",
    ),
    "verify41-unused-random-d": (
        {
            "domain": {"size": 4}, "algorithm": "verify41", "seed": 7,
            "distributions": {"d": {"kind": "random"}, "d0": {"kind": "random"},
                              "d1": {"kind": "random"}},
            "family": {"builder": "explicit",
                       "members": [[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0]]},
            "params": {"epsilon": 0.1, "gamma": 0.05, "k": 2},
        },
        "262b8efdf5f5facbb0e96080314f905a680e85006ad965d49485ce33178c3f89",
    ),
    "characterize-unused-random-target": (
        {
            "domain": {"size": 4}, "algorithm": "characterize", "seed": 8,
            "target": {"kind": "random"},
            "distributions": {"d0": {"kind": "random"}, "d1": {"kind": "random"}},
            "family": {"builder": "explicit",
                       "members": [[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0]]},
            "params": {"epsilon": 0.1, "k": 2},
        },
        "7246eb67b1d035c18dbcf31376f495255da8e366eeeb402ff2554ffc5f81db94",
    ),
}


@pytest.mark.parametrize("name", sorted(RNG_ORDER_CASES))
def test_seeded_generators_draw_in_a_fixed_order(name):
    config, digest = RNG_ORDER_CASES[name]
    outcome = run_config(config)
    assert outcome.exit_code == 0, outcome.report
    text = "\n".join(canonical_lines(outcome.report)) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
