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
    calibration_error,
    multiaccuracy_boost,
    multiaccuracy_error,
    multicalibrate,
    multicalibration_check,
)
from .config import (
    ConfigContext,
    build_distribution,
    build_family,
    build_function,
    build_growth,
    build_ladder,
    build_schedule,
    canonical_algorithm,
    validate_config,
)
from .domain import FiniteDomain
from .errors import InternalContractError, RegsimError, ValidationError
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


def _summarize(inequalities: list[dict]) -> dict:
    failed = [iq["name"] for iq in inequalities if not iq["pass"]]
    return {"passed": not failed, "failed": failed}


def run_config(config: dict, seed_override: int | None = None) -> RunOutcome:
    """Validate and execute a config; never raises for user-level errors."""
    started = time.perf_counter()
    config = dict(config)
    if seed_override is not None:
        config["seed"] = seed_override
    problems = validate_config(config)
    if problems:
        report = {
            "config": config,
            "version": __version__,
            "error": {"kind": "configuration", "problems": problems},
        }
        return RunOutcome(report, EXIT_CONFIG)
    algo = canonical_algorithm(config["algorithm"])
    try:
        payload, inequalities = _execute(algo, config)
        summary = _summarize(inequalities)
        report = {
            "config": config,
            "version": __version__,
            "algorithm": config["algorithm"],
            "wall_time_s": round(time.perf_counter() - started, 6),
            "payload": payload,
            "inequalities": inequalities,
            "summary": summary,
        }
        return RunOutcome(report, EXIT_OK if summary["passed"] else EXIT_ASSERTION)
    except InternalContractError as exc:
        report = {
            "config": config,
            "version": __version__,
            "error": {"kind": "internal-contract", "message": str(exc)},
        }
        return RunOutcome(report, EXIT_INTERNAL)
    except RegsimError as exc:
        report = {
            "config": config,
            "version": __version__,
            "error": {"kind": "precondition", "message": str(exc)},
        }
        return RunOutcome(report, EXIT_CONFIG)


def _execute(algo: str, config: dict) -> tuple[dict, list[dict]]:
    domain = FiniteDomain.from_json(config["domain"])
    ctx = ConfigContext(domain, config.get("seed"))
    params = config.get("params", {})
    dists = config.get("distributions", {})
    if "target" in config:
        ctx.target = build_function(config["target"], ctx, "config.target")

    if algo in ("boost", "calibrated", "multicalibrate"):
        return _execute_boost(algo, config, ctx, params, dists)
    if algo == "supersim-expanding":
        return _execute_expanding(config, ctx, params, dists)
    if algo == "supersim-shrinking":
        return _execute_shrinking(config, ctx, params, dists)
    if algo in ("verify41", "verify42"):
        return _execute_verify(algo, config, ctx, params, dists)
    if algo == "characterize":
        return _execute_characterize(config, ctx, params, dists, super_variant=False)
    if algo == "characterize-super":
        return _execute_characterize(config, ctx, params, dists, super_variant=True)
    raise ValidationError(f"unknown algorithm {algo!r}")


def _execute_boost(algo, config, ctx, params, dists):
    g = ctx.target
    dist = build_distribution(dists["d"], ctx, "config.distributions.d")
    family = build_family(config["family"], ctx, "config.family")
    eps = float(params["epsilon"])
    if algo == "multicalibrate":
        h, trace = multicalibrate(g, dist, family, eps, max_iters=params.get("max_iters"))
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
        gamma=float(params["gamma"]) if algo == "calibrated" else None,
        max_iters=params.get("max_iters"),
    )
    if algo == "boost":
        h, trace = multiaccuracy_boost(g, dist, family, bp)
    else:
        h, trace = calibrated_multiaccuracy(g, dist, family, bp)
    ma, _ = multiaccuracy_error(family, g, h, dist)
    inequalities = [Inequality("multiaccuracy-error", ma, eps)]
    if algo == "calibrated":
        inequalities.append(
            Inequality("calibration-error", calibration_error(g, h, dist), bp.gamma)
        )
    payload = {
        "simulator": h.to_json(),
        "updates": trace.update_count,
        "termination": trace.termination,
        "trace": [r.to_json() for r in trace.records],
        "audit": audit(g, h, dist, family, eps).to_json(),
    }
    return payload, [iq.to_json() for iq in inequalities]


def _execute_expanding(config, ctx, params, dists):
    g = ctx.target
    dist = build_distribution(dists["d"], ctx, "config.distributions.d")
    ladder = build_ladder(config["ladder"], ctx, "config.ladder")
    growth = build_growth(config["growth"], ladder, "config.growth")
    eps = float(params["epsilon"])
    result = supersimulator_expanding(g, dist, ladder, growth, eps)
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


def _execute_shrinking(config, ctx, params, dists):
    g = ctx.target
    dist = build_distribution(dists["d"], ctx, "config.distributions.d")
    ladder = build_ladder(config["ladder"], ctx, "config.ladder")
    growth = build_growth(config["growth"], ladder, "config.growth")
    schedule = build_schedule(config["schedule"], "config.schedule")
    alpha = float(params["alpha"])
    pair = supersimulator_shrinking(g, dist, ladder, growth, schedule, alpha)
    ok, measured = corollary_check(pair, ladder, growth)
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


def _verify_simulator(config, ctx, inst, family, eps, gamma, tol):
    spec = config.get("simulator")
    if spec is None or (isinstance(spec, dict) and spec.get("kind") == "calibrated"):
        h, _ = calibrated_multiaccuracy(
            inst.g, inst.d_x, family, BoostParams(epsilon=tol, gamma=gamma)
        )
        return h
    return build_function(spec, ctx, "config.simulator")


def _execute_verify(algo, config, ctx, params, dists):
    d0 = build_distribution(dists["d0"], ctx, "config.distributions.d0")
    d1 = build_distribution(dists["d1"], ctx, "config.distributions.d1")
    family = build_family(config["family"], ctx, "config.family")
    eps = float(params["epsilon"])
    gamma = float(params["gamma"])
    k = int(params["k"])
    if algo == "verify41":
        inst = build_mixture(d0, d1, 0.5)
        h = _verify_simulator(config, ctx, inst, family, eps, gamma, eps)
        report = verify_two_proxy(inst, h, family, eps, gamma, k)
    else:
        inst = build_mixture(d0, d1, eps)
        h = _verify_simulator(config, ctx, inst, family, eps, gamma, eps ** 2)
        report = verify_single_proxy(inst, h, family, eps, gamma, k)
    payload = {"report": report.to_json(), "simulator": h.to_json()}
    return payload, [iq.to_json() for iq in report.inequalities]


def _execute_characterize(config, ctx, params, dists, super_variant):
    d0 = build_distribution(dists["d0"], ctx, "config.distributions.d0")
    d1 = build_distribution(dists["d1"], ctx, "config.distributions.d1")
    eps = float(params["epsilon"])
    k = int(params["k"])
    mode = params.get("mode", "two-proxy")
    if super_variant:
        ladder = build_ladder(config["ladder"], ctx, "config.ladder")
        growth = build_growth(config["growth"], ladder, "config.growth")
        report = characterize_super(d0, d1, ladder, growth, eps, k, mode=mode)
    else:
        family = build_family(config["family"], ctx, "config.family")
        report = characterize(d0, d1, family, eps, k, mode=mode)
    payload = {"report": report.to_json()}
    return payload, [iq.to_json() for iq in report.inequalities]
