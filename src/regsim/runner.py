"""Execute validated configs and assemble reproducible run reports.

One run per invocation; a report embeds every asserted inequality with its
name and both measured sides, next to the simulator it was measured on.  The
claims are measured on the construction's in-memory objects, so re-checking
a saved report still means re-running its config.  Re-running the same
config and seed yields a byte-identical report except for the wall-time
field.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from . import __version__
from .boosting import (
    BoostParams,
    audit,
    calibrated_multiaccuracy,
    multiaccuracy_boost,
    multicalibrate,
    multicalibration_check,
)
from .config import Plan, plan_config
from .domain import Inequality
from .errors import InternalContractError, RegsimError
from .products import _fit_and_verify, characterize, characterize_super
from .supersim import supersimulator_expanding, supersimulator_shrinking

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSERTION = 2
EXIT_INTERNAL = 3


@dataclass
class RunOutcome:
    report: dict
    exit_code: int

    def report_text(self) -> str:
        """The report as `regsim run` prints it.  A config built in Python
        may have no JSON form (it holds itself, or a numpy scalar); the
        report then says why in place of the config."""
        try:
            return json.dumps(self.report, sort_keys=True, indent=2) + "\n"
        except (TypeError, ValueError) as exc:
            report = {**self.report, "config": f"not serializable: {exc}"}
            return json.dumps(report, sort_keys=True, indent=2) + "\n"


def run_config(config: dict, seed_override: int | None = None) -> RunOutcome:
    """Validate and execute a config; never raises for user-level errors."""
    started = time.perf_counter()
    if isinstance(config, dict):
        config = dict(config)
        if seed_override is not None:
            config["seed"] = seed_override
    head = {"config": config, "version": __version__}

    def failure(exit_code: int, **error) -> RunOutcome:
        return RunOutcome({**head, "error": error}, exit_code)

    plan, problems = plan_config(config)
    if problems:
        return failure(EXIT_CONFIG, kind="configuration", problems=problems)
    try:
        payload, inequalities = _execute(plan)
    except InternalContractError as exc:
        return failure(EXIT_INTERNAL, kind="internal-contract", message=str(exc))
    except RegsimError as exc:
        return failure(EXIT_CONFIG, kind="precondition", message=str(exc))
    failed = [iq["name"] for iq in inequalities if not iq["pass"]]
    report = {
        **head,
        "algorithm": config["algorithm"],
        "wall_time_s": round(time.perf_counter() - started, 6),
        "payload": payload,
        "inequalities": inequalities,
        "summary": {"passed": not failed, "failed": failed},
    }
    return RunOutcome(report, EXIT_ASSERTION if failed else EXIT_OK)


def _execute(plan: Plan) -> tuple[dict, list[dict]]:
    if plan.algorithm in ("boost", "calibrated", "multicalibrate"):
        return _execute_boost(plan)
    if plan.algorithm == "supersim-expanding":
        return _execute_expanding(plan)
    if plan.algorithm == "supersim-shrinking":
        return _execute_shrinking(plan)
    return _execute_products(plan)


def _execute_boost(plan: Plan):
    g, dist, family, eps = plan.target, plan.d, plan.family, plan.epsilon
    if plan.algorithm == "multicalibrate":
        h, trace = multicalibrate(g, dist, family, eps, max_iters=plan.max_iters)
        mc = multicalibration_check(g, h, dist, family, eps)
        inequalities = [mc.claim.to_json()]
        payload = {
            "simulator": h.to_json(),
            "updates": trace.update_count,
            "termination": trace.termination,
            "multicalibration": mc.to_json(),
        }
        return payload, inequalities
    bp = BoostParams(
        epsilon=eps,
        gamma=plan.gamma if plan.algorithm == "calibrated" else None,
        max_iters=plan.max_iters,
    )
    if plan.algorithm == "boost":
        h, trace = multiaccuracy_boost(g, dist, family, bp)
    else:
        h, trace = calibrated_multiaccuracy(g, dist, family, bp)
    report = audit(g, h, dist, family, eps)
    inequalities = [Inequality("multiaccuracy-error", report.multiaccuracy_error, eps)]
    if plan.algorithm == "calibrated":
        inequalities.append(Inequality("calibration-error", report.calibration_error, bp.gamma))
    payload = {
        "simulator": h.to_json(),
        "updates": trace.update_count,
        "termination": trace.termination,
        "trace": [r.to_json() for r in trace.records],
        "audit": report.to_json(),
    }
    return payload, [iq.to_json() for iq in inequalities]


def _execute_expanding(plan: Plan):
    result = supersimulator_expanding(plan.target, plan.d, plan.ladder, plan.growth, plan.epsilon)
    payload = {"result": result.to_json(), "simulator": result.h.to_json()}
    return payload, [iq.to_json() for iq in result.inequalities]


def _execute_shrinking(plan: Plan):
    pair = supersimulator_shrinking(
        plan.target, plan.d, plan.ladder, plan.growth, plan.schedule, plan.alpha
    )
    _, markov, _ = pair.inequalities
    payload = {
        "pair": pair.to_json(),
        "corollary_measured_error": markov.lhs,
        "corollary_passes": markov.passes,
        "simulator": pair.h.to_json(),
        "simulator_prime": pair.h_prime.to_json(),
    }
    return payload, [iq.to_json() for iq in pair.inequalities]


def _execute_products(plan: Plan):
    """The verifications, which report their simulator, and the characterizations."""
    payload = {}
    if plan.algorithm == "characterize-super":
        report = characterize_super(
            plan.d0, plan.d1, plan.ladder, plan.growth, plan.epsilon, plan.k, mode=plan.mode
        )
    elif plan.algorithm == "characterize":
        report = characterize(plan.d0, plan.d1, plan.family, plan.epsilon, plan.k, mode=plan.mode)
    else:
        report, h, _ = _fit_and_verify(
            plan.d0, plan.d1, [plan.family], None, plan.epsilon, plan.gamma, plan.k, plan.mode,
            plan.simulator,
        )
        payload["simulator"] = h.to_json()
    payload["report"] = report.to_json()
    return payload, [iq.to_json() for iq in report.inequalities]
