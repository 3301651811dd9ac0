"""regsim benchmark: one command, three seeded closed-loop workloads.

    python3 perfbench/run.py --workload boost-wide --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each workload runs in a fresh worker
process (``worker.py``) that imports regsim from ``src/``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of a
separate traced run.  Lines before it print every metric by name and unit;
the full record (samples, digests, environment) goes to
``.perfbench_out/``.  Exit status is nonzero when any run fails a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("boost-wide", "kfold-proxy", "supersim-ladder")
# Set-up is timed this many times per untraced run (fresh process each);
# setup_s is the median.
SETUP_SAMPLES = 3
# Slack a worker gets past --seconds before it is killed.
GRACE_S = 120.0


def spawn(args: list[str], limit_s: float) -> tuple[float | None, int, list[str]]:
    """Run a worker; return (seconds from spawn to its READY line, exit code,
    remaining stdout lines).  The worker is killed after ``limit_s``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    timer = threading.Timer(limit_s, proc.kill)
    timer.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return ready, code, lines


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: the 11th
    largest sample.  Returns (value, percentile, samples beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(work: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """Metric values and, per metric, the sample counts behind them."""
    run_s = work["run_s"]
    value, pct, beyond = tail(run_s)
    metrics = {
        "runs_per_s": len(run_s) / sum(run_s),
        "run_s_p50": statistics.median(run_s),
        "run_s_tail": value,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": work["peak_rss_mb"],
    }
    notes = {
        "runs_per_s": f"{len(run_s)} runs in {work['rounds']} rounds, checks excluded",
        "run_s_p50": f"n={len(run_s)}",
        "run_s_tail": f"p{pct:.1f}, {beyond} samples beyond, n={len(run_s)}",
        "setup_s": f"median of {len(setup_samples)}: "
        + ", ".join(f"{s:.3f}" for s in setup_samples),
        "peak_rss_mb": "worker process, getrusage",
    }
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "regsim" / "__init__.py").is_file():
        print(f"error: no regsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup_samples = []
    for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
        ready, code, _ = spawn(common + ["--setup-only"], GRACE_S)
        if code != 0 or ready is None:
            print(f"error: set-up worker exited with {code}", file=sys.stderr)
            return 1
        setup_samples.append(ready)
    ready, code, lines = spawn(common, args.seconds + GRACE_S)
    if code != 0 or ready is None or not lines:
        print(f"error: worker exited with {code}", file=sys.stderr)
        return 1
    work = json.loads(lines[-1])
    setup_samples.append(ready)

    if args.trace:
        values, notes = work["per_layer"], {}
    else:
        values, notes = end_to_end(work, setup_samples)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    failed = len(work["failures"])
    attempted = work["attempted"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"blas_threads {work['env']['blas_threads']}  commit {work['env']['git_commit']}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} -      {failed} of {attempted} runs")
    print(f"  waiting: {work['env']['waiting']}")
    if args.trace:
        print(f"  trace passes {work['passes']}, counts repeat exactly: "
              f"{work['counts_repeat_exactly']}, self-time gap {work['self_time_gap']:.2e}")
    for failure in work["failures"]:
        print(f"  FAILED {failure['run']}: {failure['problems']}")

    OUT_DIR.mkdir(exist_ok=True)
    record = dict(work, metrics=metrics, setup_samples_s=setup_samples,
                  fail_ratio=failed / attempted)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"  record: {out.relative_to(ROOT)}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
