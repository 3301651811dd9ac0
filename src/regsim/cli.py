"""Command-line interface: run, validate, and demo subcommands.

Exit codes: 0 all asserted inequalities pass, 1 configuration or
precondition error, 2 assertion failure, 3 internal-contract violation
(a library bug).  Set REGSIM_THREADS to cap BLAS thread counts.  A rerun
reports the same bytes for one BLAS build and one thread count; another
thread count can move reported floats by ulps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import load_config, validate_config
from .demos import demo_config, demo_names
from .runner import EXIT_CONFIG, RunOutcome, run_config


def _apply_thread_env() -> None:
    threads = os.environ.get("REGSIM_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


def _emit(outcome: RunOutcome, out_path: str | None) -> int:
    """Write the report; the run's exit code, or 1 when the path is unwritable."""
    text = outcome.report_text()
    if not out_path:
        sys.stdout.write(text)
        return outcome.exit_code
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return outcome.exit_code


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outcome = run_config(config, seed_override=args.seed)
    # a non-string output is a named problem in the report, which goes to stdout
    output = config.get("output") if isinstance(config, dict) else None
    return _emit(outcome, args.out or (output if isinstance(output, str) else None))


def _cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    problems = validate_config(config)
    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} problem(s) found")
        return EXIT_CONFIG
    print("ok")
    return 0


def _cmd_demo(args) -> int:
    if args.list or args.name is None:
        for name in demo_names():
            print(name)
        return 0
    try:
        config = demo_config(args.name)
    except KeyError:
        print(f"error: unknown demo {args.name!r}; try --list", file=sys.stderr)
        return EXIT_CONFIG
    return _emit(run_config(config, seed_override=args.seed), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regsim",
        description="Exact regularity, calibration, and supersimulator experiments "
        "over explicit finite domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config and write its report")
    p_run.add_argument("config", help="path to a JSON config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="report path (default: config output or stdout)")
    p_run.set_defaults(fn=_cmd_run)

    p_val = sub.add_parser("validate", help="schema/precondition check without executing")
    p_val.add_argument("config", help="path to a JSON config")
    p_val.set_defaults(fn=_cmd_validate)

    p_demo = sub.add_parser("demo", help="run a named built-in demo")
    p_demo.add_argument("name", nargs="?", default=None, help="demo name; omit with --list")
    p_demo.add_argument("--list", action="store_true", help="list demo names")
    p_demo.add_argument("--seed", type=int, default=None, help="override the demo seed")
    p_demo.add_argument("--out", default=None, help="report path (default: stdout)")
    p_demo.set_defaults(fn=_cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    _apply_thread_env()
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
