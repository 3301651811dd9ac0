"""Canonical gap-closure comparison used by the acceptance suite.

Runs the two characterize demos on the shared disjoint-support instance and
renders a unified diff of their reports (wall time stripped).  The committed
golden file freezes this diff; regenerate with

    python -m gap_golden   (from the tests directory)

`demo_digests` hashes every demo report in the same canonical form.  The
committed `golden/demo_digests.json` pins the report bytes of all demos
across refactors; it is written once from a known-good tree and is never
regenerated to make a change pass.
"""

import difflib
import hashlib
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "golden" / "gap_closure.diff"
DIGESTS_PATH = Path(__file__).parent / "golden" / "demo_digests.json"


def canonical_lines(report: dict) -> list[str]:
    report = dict(report)
    report.pop("wall_time_s", None)
    return json.dumps(report, sort_keys=True, indent=2).splitlines()


def demo_digests() -> dict[str, str]:
    """sha256 of each demo report's canonical lines, keyed by demo name."""
    from regsim.demos import demo_config, demo_names
    from regsim.runner import run_config

    out = {}
    for name in demo_names():
        text = "\n".join(canonical_lines(run_config(demo_config(name)).report)) + "\n"
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def make_gap_diff() -> str:
    from regsim.demos import demo_config
    from regsim.runner import run_config

    plain = run_config(demo_config("characterize-gap"))
    sup = run_config(demo_config("characterize-super-gap"))
    assert plain.exit_code == 0, plain.report
    assert sup.exit_code == 0, sup.report
    diff = difflib.unified_diff(
        canonical_lines(plain.report),
        canonical_lines(sup.report),
        fromfile="characterize-gap",
        tofile="characterize-super-gap",
        lineterm="",
    )
    return "\n".join(diff) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(make_gap_diff())
    print(f"wrote {GOLDEN_PATH}")
