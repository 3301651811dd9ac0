"""Execute validated configs and assemble reproducible run reports.

One run per invocation; a report embeds the raw audit numbers for every
asserted inequality so that each can be re-derived offline from the report
alone.  Re-running the same config and seed yields a byte-identical report
except for the wall-time field.
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
    multiaccuracy_error,
    multicalibrate,
    multicalibration_check,
)
from .config import Plan, plan_config
from .errors import InternalContractError, RegsimError
from .products import (
    Inequality,
    build_mixture,
    characterize,
    characterize_super,
    verify_single_proxy,
    verify_two_proxy,
)
from .supersim import (
    _corollary_bound,
    corollary_check,
    supersimulator_expanding,
    supersimulator_shrinking,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSERTION = 2
EXIT_INTERNAL = 3


@dataclass
class RunOutcome:
    report: dict
    exit_code: int

    def report_text(self) -> str:
        return json.dumps(self.report, sort_keys=True, indent=2) + "\n"


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
    if plan.algorithm in ("verify41", "verify42"):
        return _execute_verify(plan)
    return _execute_characterize(plan)


def _execute_boost(plan: Plan):
    g, dist, family, eps = plan.target, plan.d, plan.family, plan.epsilon
    if plan.algorithm == "multicalibrate":
        h, trace = multicalibrate(g, dist, family, eps, max_iters=plan.max_iters)
        passed, mc = multicalibration_check(g, h, dist, family, eps)
        inequalities = [Inequality("multicalibration-bad-mass", mc.bad_mass, eps).to_json()]
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
    g, dist, ladder, eps = plan.target, plan.d, plan.ladder, plan.epsilon
    result = supersimulator_expanding(g, dist, ladder, plan.growth, eps)
    ma, _ = multiaccuracy_error(ladder[result.fooled_level], g, result.h, dist)
    bound_label = result.recurrence.labels[
        min(result.bound_index, len(result.recurrence.labels) - 1)
    ]
    inequalities = [
        Inequality("regular-against-grown-family", ma, eps),
        Inequality("updates-within-bound", result.updates, result.bound_index),
        Inequality("label-s1-within-bound", result.label.s1, bound_label.s1),
        Inequality("label-s2-within-bound", result.label.s2, bound_label.s2),
    ]
    payload = {"result": result.to_json(), "simulator": result.h.to_json()}
    return payload, [iq.to_json() for iq in inequalities]


def _execute_shrinking(plan: Plan):
    pair = supersimulator_shrinking(
        plan.target, plan.d, plan.ladder, plan.growth, plan.schedule, plan.alpha
    )
    ok, measured = corollary_check(pair, plan.ladder, plan.growth)
    inequalities = [
        Inequality("similarity", pair.similarity, pair.phi_gap + 4 * pair.eps_at_s),
        Inequality("markov-regularity-of-h", measured, _corollary_bound(pair)),
        Inequality("round-index", pair.round_index, pair.round_bound + 1),
    ]
    payload = {
        "pair": pair.to_json(),
        "corollary_measured_error": measured,
        "corollary_passes": ok,
        "simulator": pair.h.to_json(),
        "simulator_prime": pair.h_prime.to_json(),
    }
    return payload, [iq.to_json() for iq in inequalities]


def _execute_verify(plan: Plan):
    eps, gamma = plan.epsilon, plan.gamma
    if plan.algorithm == "verify41":
        inst, tol, verify = build_mixture(plan.d0, plan.d1, 0.5), eps, verify_two_proxy
    else:
        inst, tol, verify = build_mixture(plan.d0, plan.d1, eps), eps ** 2, verify_single_proxy
    h = plan.simulator
    if h is None:
        h, _ = calibrated_multiaccuracy(
            inst.g, inst.d_x, plan.family, BoostParams(epsilon=tol, gamma=gamma)
        )
    report = verify(inst, h, plan.family, eps, gamma, plan.k)
    payload = {"report": report.to_json(), "simulator": h.to_json()}
    return payload, [iq.to_json() for iq in report.inequalities]


def _execute_characterize(plan: Plan):
    if plan.algorithm == "characterize-super":
        report = characterize_super(
            plan.d0, plan.d1, plan.ladder, plan.growth, plan.epsilon, plan.k, mode=plan.mode
        )
    else:
        report = characterize(plan.d0, plan.d1, plan.family, plan.epsilon, plan.k, mode=plan.mode)
    payload = {"report": report.to_json()}
    return payload, [iq.to_json() for iq in report.inequalities]
