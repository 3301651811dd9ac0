import copy
import dataclasses
import functools
import hashlib
import json
import operator
import random
import runpy
from pathlib import Path

import pytest

import regsim.runner as runner_mod
from regsim import kfold
from gap_golden import DIGESTS_PATH, canonical_lines, demo_digests
from regsim.cli import main
from regsim.config import validate_config
from regsim.demos import demo_config, demo_names
from regsim.errors import InternalContractError, RegsimError
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


@pytest.mark.parametrize(
    "change,problem",
    [
        ({}, None),
        ({"params": {"k": 2.0}}, "config.params.k: expected an integer, got 2.0"),
        ({"params": {"k": True}}, "config.params.k: expected an integer, got True"),
        ({"distributions": {"d0": []}}, "config.distributions.d0: expected a nonempty list"),
    ],
)
def test_cli_run_names_a_bad_k_or_an_empty_measure(tmp_path, capsys, change, problem):
    config = demo_config("characterize-gap")
    for key, value in change.items():
        config[key].update(value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if problem is None:
        assert code == 0
    else:
        assert code == 1
        assert json.loads(captured.out)["error"]["problems"] == [problem]


def test_characterize_k_beyond_double_precision_is_exit_one():
    config = demo_config("characterize-gap")
    config["distributions"] = {"d0": [0.7, 0.3], "d1": [0.4, 0.6]}
    config["params"]["k"] = 20000
    outcome = run_config(config)
    assert outcome.exit_code == 1
    assert "double precision" in json.dumps(outcome.report["error"])


def test_verify_over_reach_k_is_exit_one_before_the_type_table(monkeypatch):
    def no_table(n, k):
        raise AssertionError("the size-k type table was built")

    monkeypatch.setattr(kfold, "_type_table", no_table)
    config = {
        "domain": {"size": 4, "bit_width": 2},
        "algorithm": "verify41",
        "seed": 1,
        "distributions": {"d0": {"kind": "random"}, "d1": {"kind": "random"}},
        "family": {"builder": "coordinate"},
        "simulator": {"kind": "calibrated"},
        "params": {"epsilon": 0.1, "gamma": 0.01, "k": 300},
    }
    outcome = run_config(config)
    assert outcome.exit_code == 1
    assert "successor maps for N=4, k=300" in json.dumps(outcome.report["error"])


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


def test_cli_run_on_a_list_config_is_a_named_problem(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["error"]["problems"] == ["config: expected an object, got list"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("output", [{"a": 1}, 12345], ids=["object", "int"])
def test_cli_non_string_output_is_a_named_problem(output, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(minimal_boost_config(output=output)))
    assert main(["validate", str(path)]) == 1
    assert "config.output: expected a string path" in capsys.readouterr().out
    # the report names the problem on stdout, where no output path sends it
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["problems"] == [
        "config.output: expected a string path"
    ]
    assert "Traceback" not in captured.err


def test_cli_nan_threshold_grid_is_a_named_problem(tmp_path, capsys):
    # json reads NaN, which compares false against both ends of [0, 1]
    path = tmp_path / "nan.json"
    family = {"builder": "threshold", "grid": [float("nan"), 0.5]}
    path.write_text(json.dumps(minimal_boost_config(family=family)))
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["error"]["problems"] == [
        "config.family: threshold grid values must lie in [0, 1]"
    ]
    assert "Traceback" not in captured.err


def test_cli_unwritable_report_path_is_exit_one(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["demo", "boost-two-point", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write report: ")
    assert "Traceback" not in captured.err and not out.exists()


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


@pytest.mark.parametrize(
    "script",
    ["01_boosting_and_audits.py", "02_supersimulators.py", "03_product_indistinguishability.py"],
)
def test_walkthrough_scripts_run(script, capsys):
    runpy.run_path(str(Path(__file__).parents[1] / "demos" / script), run_name="__main__")
    assert capsys.readouterr().out


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


def demo_holding_itself(kind):
    """The supersim-expanding demo whose level 0 holds itself: its members
    list inside that list ("list"), or the level inside its members ("dict")."""
    config = demo_config("supersim-expanding")
    level = config["ladder"]["levels"][0]
    level["members"] = [level] if kind == "dict" else []
    if kind == "list":
        level["members"].append(level["members"])
    return config


# The fuzz case that raised MemoryError: a domain too large to allocate,
# read by a uniform distribution before any size mismatch is noticed.
HUGE_DOMAIN = demo_with("verify41-disjoint", "domain.size", 2**53 + 1)
HUGE_DOMAIN["distributions"]["d0"] = {"kind": "uniform"}

# An int past 4,300 digits, which str() refuses to format; a message names
# it by its bit length.
WIDE = 10**5000
WIDE_NAME = f"an integer of {WIDE.bit_length()} bits"


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
        (demo_with("supersim-expanding", "ladder.pad_to", -3), "config.ladder.pad_to"),
        (demo_with("supersim-expanding", "ladder.pad_to", 10**5000), "config.ladder.pad_to"),
        (demo_with("supersim-expanding", "ladder.levels", [
            {"builder": "compose", "base": {"builder": "explicit", "members": [[1.0, 1.0]]},
             "s1": 10**5000, "s2": 1, "catalog": ["identity"]},
        ]), "config.ladder.levels[0].s1"),
        (demo_with("supersim-expanding", "ladder.levels", [
            {"builder": "threshold", "grid": [0.5, 10**5000]},
        ]), "config.ladder.levels[0].grid"),
        (demo_with("characterize-super-gap", "ladder.pad_to", 2), "config.ladder.pad_to"),
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
        (demo_with("supersim-expanding", "domain.size", 10**5000), "config.domain.size"),
        (demo_with("supersim-expanding", "domain.bit_width", 10**5000),
         "config.domain.bit_width"),
        (demo_holding_itself("list"), "config.ladder.levels[0].members[0]"),
        (demo_with("characterize-super-gap", "params.k", 1100), "config.params.k"),
        (demo_with("verify42-halfsplit", "params.gamma", 0.08), "config.params.gamma"),
        ({**demo_config("characterize-gap"),
          "params": {"epsilon": 1e-11, "k": 2, "mode": "single-proxy"}}, "config.params.epsilon"),
        (demo_holding_itself("dict"), "config.ladder.levels[0].members[0]"),
        (demo_with("supersim-shrinking", "schedule", {"kind": "explicit", "values": [0.1, 0.2]}),
         "config.schedule"),
        (demo_with("supersim-expanding", "ladder.levels",
                   demo_config("supersim-expanding")["ladder"]["levels"][::-1]), "config.ladder"),
        (demo_with("supersim-expanding", "ladder.levels", [
            {"builder": "explicit", "members": [[1.0, 1.0]]},
            {"builder": "compose", "base": {"builder": "explicit", "members": [[1.0, 1.0]]},
             "s1": 1, "s2": 0, "catalog": ["min"]},
        ]), "config.ladder.levels[1]"),
        (demo_with("supersim-expanding", "ladder.levels", [
            {"builder": "compose", "base": {"builder": "explicit", "members": [[1.0, 1.0]]},
             "s1": 1, "s2": 1, "catalog": [["identity"]]},
        ]), "config.ladder.levels[0].catalog"),
        (demo_with("boost-two-point", "algorithm", WIDE), "config.algorithm"),
        (demo_with("boost-two-point", "seed", -WIDE), "config.seed"),
        (demo_with("boost-two-point", "seed", WIDE), "config.seed"),
        (demo_with("boost-two-point", "seed", 2**64), "config.seed"),
        (demo_with("boost-two-point", "distributions.d", {"kind": WIDE}),
         "config.distributions.d.kind"),
        (demo_with("supersim-expanding", "growth", {"kind": WIDE}), "config.growth.kind"),
        (demo_with("boost-two-point", "family", {"builder": WIDE}), "config.family.builder"),
        (demo_with("supersim-expanding", "ladder.levels", [
            {"builder": "compose", "base": {"builder": "explicit", "members": [[1.0, 1.0]]},
             "s1": 1, "s2": 1, "catalog": [WIDE]},
        ]), "config.ladder.levels[0].catalog"),
        (demo_with("boost-two-point", "params", {"epsilon": 0.1, WIDE: 1}),
         f"config.params.{WIDE_NAME}"),
        (demo_with("characterize-gap", "params.k", [WIDE]), "config.params.k"),
        (demo_with("boost-two-point", "params.epsilon", [WIDE]), "config.params.epsilon"),
        (demo_with("supersim-expanding", "ladder.pad_to", [WIDE]), "config.ladder.pad_to"),
        (demo_with("boost-two-point", "domain.size", [WIDE]), "config.domain"),
    ],
    ids=[
        "rectangle-without-cols", "two-point-without-j", "rows-not-a-number", "float-domain-size",
        "list", "string", "vector-int-beyond-double", "scalar-int-beyond-double",
        "pad-to-beyond-index", "pad-to-huge", "pad-to-negative",
        "pad-to-5000-digits", "compose-s1-5000-digits", "threshold-grid-5000-digits",
        "pad-to-below-levels",
        "schedule-depth-huge", "epsilon-underflow",
        "multicalibrate-epsilon-overflows-bound", "gamma-subnormal", "alpha-subnormal",
        "domain-beyond-memory", "schedule-value-underflow", "bit-width-beyond-64",
        "domain-size-5000-digits", "bit-width-5000-digits", "members-list-holds-itself",
        "k-beyond-double-weights", "gamma-above-fit-tolerance", "fit-gamma-underflow",
        "level-holds-itself",
        "schedule-increasing", "ladder-levels-reversed", "compose-level-fits-no-entry",
        "catalog-name-unhashable", "algorithm-5000-digits", "seed-5000-digits",
        "seed-positive-5000-digits", "seed-beyond-64-bits",
        "distribution-kind-5000-digits", "growth-kind-5000-digits", "builder-5000-digits",
        "catalog-name-5000-digits", "params-key-5000-digits", "k-list-of-5000-digits",
        "epsilon-list-of-5000-digits", "pad-to-list-of-5000-digits",
        "domain-size-list-of-5000-digits",
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


def test_mutated_demo_configs_are_runs_or_named_problems(tmp_path, monkeypatch, capsys):
    # each config names a report path, so mutations reach the CLI's writer;
    # every relative path it writes lands in tmp_path
    monkeypatch.chdir(tmp_path)
    rng = random.Random(2012)
    names = demo_names()
    for i in range(300):
        config, edits = {**demo_config(names[i % len(names)]), "output": "report.json"}, []
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
        Path("config.json").write_text(json.dumps(config))
        code = main(["run", "config.json"])
        assert code in (0, 1, 2), (names[i % len(names)], edits, capsys.readouterr())


# Parameter values the validate/run agreement sweep sets, one at a time on
# each demo: in range, at each range's edges and past them.
SWEEP_GRID = {
    "epsilon": [-0.1, 0.0, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.49, 0.5, 0.9, 1.0],
    "gamma": [-0.01, 0.0, 0.001, 0.01, 0.04, 0.05, 0.08, 0.1, 0.2, 0.6],
    "alpha": [-0.1, 0.0, 1e-5, 1e-3, 0.1, 0.3, 0.49, 0.5, 0.7],
    "k": [0, 1, 2, 5, 1100],
    "max_iters": [0, 1, 2, 100],
}
# Run-time refusals that depend on the data, not on the parameters alone.
DATA_REFUSALS = ("reached the user cap", "exhausted", "hypothesis audit failed", "proxy undefined")
# The one inequality a valid config is known to fail (exit 2): the product
# chain's chain-lower margin, ROADMAP item 2 (the characterize demos at
# epsilon >= 0.25).
KNOWN_FAILED = ["chain-lower"]


def test_validate_accepts_only_configs_the_run_runs_or_refuses_by_data():
    for name in demo_names():
        for key, values in SWEEP_GRID.items():
            for value in values:
                config = demo_with(name, f"params.{key}", value)
                if validate_config(config):
                    continue
                outcome = run_config(config)
                report, code = outcome.report, outcome.exit_code
                assert (
                    code == 0
                    or (code == 1 and any(why in report["error"]["message"] for why in DATA_REFUSALS))
                    or (code == 2 and report["summary"]["failed"] == KNOWN_FAILED)
                ), (name, key, value, report.get("error"))


@pytest.mark.parametrize(
    "config",
    [
        {**demo_with("supersim-expanding", "params.epsilon", 1e-3), "target": [0.5, 0.5]},
        demo_with("supersim-shrinking", "params.alpha", 1e-5),
    ],
    ids=["expanding-epsilon", "shrinking-alpha"],
)
def test_recurrence_beyond_cap_is_exit_one(config):
    key = "epsilon" if "epsilon" in config["params"] else "alpha"
    problems = validate_config(config)
    assert len(problems) == 1 and problems[0].startswith(f"config.params.{key}: ")
    assert "above the cap of 65536; use a larger epsilon or alpha" in problems[0]
    outcome = run_config(config)
    assert outcome.exit_code == 1
    assert outcome.report["error"] == {"kind": "configuration", "problems": problems}


@pytest.mark.parametrize("kind", ["list", "dict"])
def test_report_text_of_a_config_holding_itself_names_the_problem(kind):
    outcome = run_config(demo_holding_itself(kind))
    assert outcome.exit_code == 1
    report = json.loads(outcome.report_text())
    assert report["error"] == outcome.report["error"]
    assert report["error"]["problems"][0].startswith("config.ladder.levels[0].members[0]: ")
    assert report["config"] == "not serializable: Circular reference detected"


# One out-of-range value for each parameter rule of each algorithm: (valid
# config, param, value).  A verification's gamma meets the fit's rule first
# unless its simulator is given or its epsilon is large.
RULE_CASES = [
    (demo_config("boost-two-point"), "epsilon", 0.5),
    (demo_config("boost-two-point"), "epsilon", 1e-300),
    (demo_config("boost-two-point"), "max_iters", 0),
    (demo_config("calibrated-two-point"), "gamma", 0.2),
    (demo_config("calibrated-two-point"), "gamma", 1e-300),
    (demo_config("calibrated-two-point"), "max_iters", -1),
    (demo_config("multicalibrate-two-point"), "epsilon", 1.0),
    (demo_config("multicalibrate-two-point"), "epsilon", 1e-100),
    (demo_config("multicalibrate-two-point"), "max_iters", 0),
    (demo_config("supersim-expanding"), "epsilon", 0.5),
    (demo_config("supersim-expanding"), "epsilon", 1e-3),
    (demo_config("supersim-shrinking"), "alpha", 0.5),
    (demo_config("supersim-shrinking"), "alpha", 1e-5),
    (demo_config("supersim-shrinking"), "alpha", 5e-324),
    (demo_config("verify41-disjoint"), "epsilon", 0.5),
    (demo_config("verify41-disjoint"), "gamma", 0.06),
    (demo_with("verify41-disjoint", "params.epsilon", 0.3), "gamma", 0.2),
    (demo_config("verify41-disjoint"), "k", 0),
    (demo_config("verify41-disjoint"), "k", 1100),
    (demo_config("verify42-halfsplit"), "epsilon", 1e-300),
    (demo_config("verify42-halfsplit"), "gamma", 0.08),
    (demo_with("verify42-halfsplit", "simulator", [0.4, 0.6]), "gamma", 0.1),
    (demo_config("characterize-gap"), "epsilon", 0.7),
    (demo_config("characterize-gap"), "mode", "three-proxy"),
    (demo_with("characterize-gap", "params.mode", "single-proxy"), "epsilon", 1e-11),
    (demo_config("characterize-gap"), "k", 0),
    (demo_config("characterize-super-gap"), "epsilon", 0.0),
    (demo_config("characterize-super-gap"), "k", 1100),
]


@pytest.mark.parametrize(
    "config,key,value", RULE_CASES,
    ids=[f"{config['algorithm']}-{key}={value}" for config, key, value in RULE_CASES],
)
def test_each_parameter_rule_has_one_text(config, key, value):
    """``validate`` files the refusal of an out-of-range param under it, in
    the words the library raises when the run calls it with that value on
    the otherwise valid plan."""
    plan, problems = runner_mod.plan_config(config)
    assert problems == []
    with pytest.raises(RegsimError) as raised:
        runner_mod._execute(dataclasses.replace(plan, **{key: value}))
    config = copy.deepcopy(config)
    config["params"][key] = value
    assert validate_config(config) == [f"config.params.{key}: {raised.value}"]


MULTICALIBRATE_7_STEPS = minimal_boost_config(
    algorithm="multicalibrate",
    domain={"size": 4},
    target=[0.9, 0.1, 0.8, 0.2],
    family={"builder": "explicit", "members": [[1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]]},
)


CALIBRATED_2_UPDATES = minimal_boost_config(
    algorithm="calibrated",
    domain={"size": 8},
    target=[0.11, 0.73, 0.93, 0.97, 0.01, 0.86, 0.98, 0.96],
    family={"builder": "explicit", "members": [
        [1, 0, 1, 0, 1, 1, 0, 0], [1, 0, 1, 1, 0, 0, 0, 1], [0, 1, 0, 0, 1, 0, 0, 0],
    ]},
    params={"epsilon": 0.05, "gamma": 0.01},
)


@pytest.mark.parametrize(
    "config",
    [demo_config("boost-two-point"), CALIBRATED_2_UPDATES, MULTICALIBRATE_7_STEPS],
    ids=["boost", "calibrated", "multicalibrate"],
)
def test_user_max_iters_cap_is_exit_one(config):
    """Every constructor refuses a run past the user's cap in one text."""
    config = json.loads(json.dumps(config))
    assert run_config(config).report["payload"]["updates"] >= 2
    config["params"]["max_iters"] = 1
    outcome = run_config(config)
    assert outcome.exit_code == 1, outcome.report
    assert outcome.report["error"]["kind"] == "precondition"
    assert outcome.report["error"]["message"] == (
        "params.max_iters: the run reached the user cap of max_iters = 1 before converging"
    )


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
