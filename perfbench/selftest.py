"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's own test run (pytest
collects test_*.py); they take about half a minute.
"""

from __future__ import annotations

import copy
import inspect
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from regsim import runner  # noqa: E402

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from reaudit import check_run, report_digest  # noqa: E402

# Seeds at which the planted targets are checked to force updates; every
# benchmark run also fails any run that makes none (see reaudit.py).
GUARD_SEEDS = (1, 2)
# Per-span self times must add up to the traced wall time within this share;
# the gap is the root wrapper's own cost outside its span.
SELF_TIME_TOL = 0.01


def _instance(workload: str, kind_name: str, seed: int = 1, index: int = 0) -> W.Instance:
    names = [k.name for k in W.WORKLOADS[workload]]
    return W.generate(workload, names.index(kind_name), index, seed)


def _cheap(workload: str) -> W.Instance:
    return _instance(workload, W.DETERMINISM_KIND[workload])


def _traced(inst: W.Instance):
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        start = time.perf_counter()
        outcome = runner.run_config(inst.config())
        wall = time.perf_counter() - start
    finally:
        installed.remove()
    return tracer, outcome, wall


def _bindings() -> dict:
    """Every name bound in a regsim module, plus every class constructor."""
    out = {}
    for m in tracing._regsim_modules():
        for attr, obj in vars(m).items():
            out[(m.__name__, attr)] = obj
            if inspect.isclass(obj) and "__init__" in vars(obj):
                out[(m.__name__, attr, "__init__")] = vars(obj)["__init__"]
    return out


def test_generator_is_deterministic_per_seed():
    for workload, kinds in W.WORKLOADS.items():
        for pos in range(len(kinds)):
            a = W.generate(workload, pos, 3, seed=7).config()
            assert a == W.generate(workload, pos, 3, seed=7).config()
            assert a != W.generate(workload, pos, 3, seed=8).config()


@pytest.mark.parametrize("seed", GUARD_SEEDS)
@pytest.mark.parametrize("workload", ["boost-wide", "supersim-ladder"])
def test_planted_targets_force_updates(workload, seed):
    for pos in range(len(W.WORKLOADS[workload])):
        inst = W.generate(workload, pos, 0, seed)
        tracer, outcome, _ = _traced(inst)
        assert outcome.exit_code == 0, inst.ident
        assert tracer.counts["boosting.updates"] >= 1, inst.ident


def test_kfold_instances_stay_under_the_tuple_cap():
    for kind in W.WORKLOADS["kfold-proxy"]:
        assert kind.n ** kind.params["k"] <= 1_000_000, kind.name


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_tracing_does_not_change_the_program(workload):
    inst = _cheap(workload)
    before = _bindings()
    plain = runner.run_config(inst.config())
    tracer, traced, wall = _traced(inst)

    assert report_digest(plain.report) == report_digest(traced.report)
    assert tracing.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    roots = [s for s in tracer.spans if s[3] < 0]
    assert [s[0] for s in roots] == ["runner.run_config"]
    self_sum = sum(row["self_s"] for row in tracing.summarize(tracer.spans).values())
    assert abs(self_sum - wall) <= SELF_TIME_TOL * wall


def test_summarize_splits_self_and_total_time():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],  # recursive: counted in calls, not twice in total
        ["c", 5.0, 7.0, 0],
    ]
    s = tracing.summarize(spans)
    assert s["a"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert s["b"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert s["c"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}


@pytest.mark.parametrize(
    "workload,kind,field",
    [
        ("boost-wide", "calibrated/N=16384", ("payload", "simulator")),
        ("kfold-proxy", "verify41/N=12,k=4", ("payload", "simulator")),
        ("supersim-ladder", "supersim-shrinking/N=256", ("payload", "simulator_prime")),
    ],
)
def test_reaudit_rejects_a_perturbed_simulator(workload, kind, field):
    inst = _instance(workload, kind)
    outcome = runner.run_config(inst.config())
    assert check_run(inst, outcome.exit_code, outcome.report) == []
    report = copy.deepcopy(outcome.report)
    section, key = field
    report[section][key] = [min(1.0, v + 0.2) for v in report[section][key]]
    assert check_run(inst, outcome.exit_code, report)


def test_reaudit_rejects_a_wrong_kfold_statistic():
    inst = _instance("kfold-proxy", "characterize/N=12,k=4")
    outcome = runner.run_config(inst.config())
    assert check_run(inst, outcome.exit_code, outcome.report) == []
    report = copy.deepcopy(outcome.report)
    report["payload"]["report"]["audits"]["tv_kfold_true"] += 1e-6
    assert check_run(inst, outcome.exit_code, report)


def test_reaudit_counts_a_nonzero_exit_as_failure():
    inst = _cheap("boost-wide")
    assert check_run(inst, 2, {"error": "x"})


def test_tail_is_the_eleventh_largest_sample():
    samples = [float(i) for i in range(1, 31)]
    assert bench.tail(samples) == (20.0, pytest.approx(100 * 20 / 30), 10)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
