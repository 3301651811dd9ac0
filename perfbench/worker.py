"""One workload in one fresh process: set up, then run the closed loop.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
the line ``READY`` once set-up is done (the parent timestamps it), then,
unless ``--setup-only``, one JSON line with the raw samples.  Everything
else goes to stderr.

Load model: one client calls ``regsim.runner.run_config`` in-process and
starts the next run when the previous one returns.  There are no queues,
threads or I/O in the loop, so waiting time is zero by construction.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import regsim  # noqa: E402
from regsim.demos import demo_config, demo_names  # noqa: E402
from regsim import runner  # noqa: E402

import tracing  # noqa: E402
from reaudit import check_run, report_digest  # noqa: E402
from workloads import DETERMINISM_KIND, POOL_SIZE, WORKLOADS, generate_pool, sizes  # noqa: E402


class Ledger:
    """Counts runs, collects failures and per-instance report digests."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.digests: dict[str, str] = {}

    def record(self, ident: str, inst, outcome) -> None:
        self.attempted += 1
        if inst is not None:
            problems = check_run(inst, outcome.exit_code, outcome.report)
        elif outcome.exit_code != 0:
            problems = [f"exit code {outcome.exit_code}"]
        else:
            problems = []
        digest = report_digest(outcome.report)
        if self.digests.setdefault(ident, digest) != digest:
            problems.append("report digest differs from an earlier run of this instance")
        if problems:
            self.failures.append({"run": ident, "problems": problems})
            print(f"FAILED {ident}: {problems}", file=sys.stderr)


def timed(inst) -> tuple[float, object]:
    config = inst.config()
    start = time.perf_counter()
    # Looked up at call time so that the traced wrapper, when installed, is
    # the root span of the run.
    outcome = runner.run_config(config)
    return time.perf_counter() - start, outcome


def setup(workload: str, seed: int, ledger: Ledger) -> list:
    pool = generate_pool(workload, seed)
    names = [k.name for k in WORKLOADS[workload]]
    det = pool[names.index(DETERMINISM_KIND[workload])][0]
    for _ in range(2):
        _, outcome = timed(det)
        ledger.record(det.ident, det, outcome)
    for name in demo_names():
        for _ in range(2):
            ledger.record(f"demo:{name}", None, runner.run_config(demo_config(name)))
    return pool


def untraced_phase(workload: str, pool, seconds: float, ledger: Ledger) -> dict:
    """Whole rounds (one instance of every kind) until ``seconds`` have passed."""
    kinds = WORKLOADS[workload]
    samples: list[tuple[str, float]] = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for pos in range(len(kinds)):
            inst = pool[pos][r % POOL_SIZE]
            dt, outcome = timed(inst)
            ledger.record(inst.ident, inst, outcome)
            samples.append((inst.kind.name, dt))
        r += 1
    return {"rounds": r, "run_s": [dt for _, dt in samples], "kinds": [k for k, _ in samples]}


def traced_phase(workload: str, pool, seconds: float, ledger: Ledger, spans_path: Path) -> dict:
    """Repeat one fixed set of runs (round 0) untraced, then traced, until
    ``seconds`` have passed.  Counts come from the first traced pass and
    must repeat exactly; times are medians over passes."""
    trace_set = [row[0] for row in pool]
    for inst in trace_set:  # first runs of each kind are cold; keep them out
        _, outcome = timed(inst)
        ledger.record(inst.ident, inst, outcome)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        untraced = 0.0
        for inst in trace_set:
            dt, outcome = timed(inst)
            ledger.record(inst.ident, inst, outcome)
            untraced += dt
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        traced = 0.0
        runs = []
        try:
            for inst in trace_set:
                first = len(tracer.spans)
                dt, outcome = timed(inst)
                ledger.record(inst.ident, inst, outcome)
                traced += dt
                runs.append((inst.ident, first, len(tracer.spans)))
        finally:
            installed.remove()
        if tracing.leftover_wrappers():
            ledger.failures.append({"run": "trace", "problems": ["wrappers left installed"]})
        summary = tracing.summarize(tracer.spans)
        self_sum = sum(row["self_s"] for row in summary.values())
        passes.append({
            "untraced_s": untraced,
            "traced_s": traced,
            "self_sum_s": self_sum,
            "summary": summary,
            "counts": dict(tracer.counts),
            "distinct_tables": len(tracer.table_keys),
        })
        if len(passes) == 1:
            _write_spans(spans_path, tracer.spans, runs)
    return _layer_metrics(passes)


def _write_spans(path: Path, spans, runs) -> None:
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "format": "span = [name index, start_s, end_s, parent span index or -1]",
        "names": names,
        "runs": [
            {"instance": ident, "spans": [
                [index[s[0]], round(s[1], 7), round(s[2], 7), s[3]] for s in spans[a:b]
            ]}
            for ident, a, b in runs
        ],
    }
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")))


def _layer_metrics(passes: list[dict]) -> dict:
    first = passes[0]
    values: dict[str, float] = {}
    for name, row in first["summary"].items():
        values[f"{name}.calls"] = row["calls"]
        for key in ("total_s", "self_s"):
            values[f"{name}.{key}"] = statistics.median(
                p["summary"].get(name, {}).get(key, 0.0) for p in passes
            )
    values.update(first["counts"])
    br_calls = first["summary"].get("families.best_response", {}).get("calls", 0)
    tables = first["summary"].get("kfold.kfold_type_classes", {}).get("calls", 0)
    values["boosting.updates_per_best_response"] = (
        first["counts"].get("boosting.updates", 0) / br_calls if br_calls else 0.0
    )
    values["kfold.type_tables_distinct_ratio"] = first["distinct_tables"] / tables if tables else 0.0
    values["bench.trace_overhead_ratio"] = statistics.median(
        p["traced_s"] / p["untraced_s"] - 1.0 for p in passes
    )
    repeat_ok = all(
        p["counts"] == first["counts"]
        and {n: r["calls"] for n, r in p["summary"].items()}
        == {n: r["calls"] for n, r in first["summary"].items()}
        for p in passes
    )
    return {
        "passes": len(passes),
        "per_layer": values,
        "counts_repeat_exactly": repeat_ok,
        "self_time_gap": max(abs(p["self_sum_s"] - p["traced_s"]) / p["traced_s"] for p in passes),
    }


def environment(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "workload": workload,
        "instance_sizes": sizes(workload),
        "waiting": "none: closed loop, one client, no queues, threads or I/O",
    }


def _git_commit() -> str:
    """HEAD read from .git without running git; a plain checkout has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    if Path(regsim.__file__).resolve().parent != ROOT / "src" / "regsim":
        print(f"regsim imported from {regsim.__file__}, not from this checkout's src/", file=sys.stderr)
        return 2

    ledger = Ledger()
    pool = setup(args.workload, args.seed, ledger)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        result = traced_phase(args.workload, pool, args.seconds, ledger, spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        result = untraced_phase(args.workload, pool, args.seconds, ledger)
    result.update(
        attempted=ledger.attempted,
        failures=ledger.failures,
        digests=dict(sorted(ledger.digests.items())),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(args.workload, args.seed),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
