"""Correctness gate: re-check every run with the benchmark's own numpy code.

Nothing here calls regsim.  Family correlations come from the bit
structure of the compose families:
    identity_i = B_i . r,   negation_i = sum(r) - B_i . r,
    min_ij = sum_x r B_i B_j,   max_ij = identity_i + identity_j - min_ij,
so a family of m members is audited from a (bits, N) matrix.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from workloads import FULL_CATALOG, Instance, bit_matrix, level_catalog

TOL = 1e-10


def report_digest(report: dict) -> str:
    """sha256 of the canonical report bytes (as `regsim run` prints them)
    with the wall_time_s field removed."""
    canonical = {k: v for k, v in report.items() if k != "wall_time_s"}
    text = json.dumps(canonical, sort_keys=True, indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def family_correlations(bits: np.ndarray, catalog, r: np.ndarray) -> np.ndarray:
    """E-weighted correlation of every member with residual mass vector r."""
    ident = bits @ r
    parts = []
    if "identity" in catalog:
        parts.append(ident)
    if "negation" in catalog:
        parts.append(r.sum() - ident)
    if "min" in catalog or "max" in catalog:
        mins = (bits * r) @ bits.T
        if "min" in catalog:
            parts.append(mins.ravel())
        if "max" in catalog:
            parts.append((ident[:, None] + ident[None, :] - mins).ravel())
    return np.concatenate(parts)


def multiaccuracy(bits, catalog, g, h, w) -> float:
    """max over members and signs of E_w[f (g - h)]."""
    return float(np.max(np.abs(family_correlations(bits, catalog, w * (g - h)))))


def calibration(g, h, w) -> float:
    """max(sum of positive, sum of negative) level-set residual masses."""
    values, inverse = np.unique(h, return_inverse=True)
    level_mass = np.bincount(inverse, weights=w * (g - h), minlength=values.size)
    return max(float(level_mass[level_mass > 0].sum()), float(-level_mass[level_mass < 0].sum()))


def bad_level_mass(bits, catalog, g, h, w, eps) -> float:
    """Mass of the level sets of h on which some member keeps conditional
    correlation above eps."""
    values, inverse = np.unique(h, return_inverse=True)
    r = w * (g - h)
    bad = 0.0
    for j in range(values.size):
        sel = inverse == j
        mass = float(w[sel].sum())
        if mass <= 0.0:
            continue
        worst = float(np.max(np.abs(family_correlations(bits, catalog, np.where(sel, r, 0.0))))) / mass
        if worst > eps + TOL:
            bad += mass
    return bad


def _mixture(d0, d1, prior=0.5):
    mix = (1.0 - prior) * d0 + prior * d1
    g = np.full(d0.size, prior)
    np.divide(prior * d1, mix, out=g, where=mix > 0)
    return mix, g


def _kfold_tv(d0, d1, k) -> float:
    p = np.ones(1)
    q = np.ones(1)
    for _ in range(k):
        p = np.kron(p, d0)
        q = np.kron(q, d1)
    return 0.5 * float(np.abs(p - q).sum())


def _check(problems: list, name: str, lhs: float, rhs: float) -> None:
    if not lhs <= rhs + TOL:
        problems.append(f"re-audit {name}: {lhs!r} > {rhs!r}")


def check_run(inst: Instance, exit_code: int, report: dict) -> list[str]:
    """Every problem found with one run; an empty list means it passed."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}: {report.get('error')}")
        return problems
    summary = report.get("summary", {})
    if not summary.get("passed"):
        problems.append(f"summary failed: {summary.get('failed')}")
    for iq in report.get("inequalities", []):
        if not (iq["pass"] and iq["lhs"] <= iq["rhs"] + TOL):
            problems.append(f"inequality {iq['name']}: {iq['lhs']!r} > {iq['rhs']!r}")
    try:
        problems += _reaudit(inst, report["payload"])
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"re-audit could not read the report: {exc!r}")
    return problems


def _reaudit(inst: Instance, payload: dict) -> list[str]:
    kind = inst.kind
    algo = kind.algorithm
    p = kind.params
    problems: list[str] = []
    bits = bit_matrix(kind.bits, kind.n)
    if algo in ("boost", "calibrated", "multicalibrate"):
        g, w = inst.vectors["target"], inst.vectors["d"]
        h = np.asarray(payload["simulator"], dtype=float)
        if payload["updates"] < 1:
            problems.append("planted target got no update")
        if algo == "multicalibrate":
            _check(problems, "bad level mass", bad_level_mass(bits, FULL_CATALOG, g, h, w, p["epsilon"]), p["epsilon"])
        else:
            _check(problems, "multiaccuracy", multiaccuracy(bits, FULL_CATALOG, g, h, w), p["epsilon"])
        if algo == "calibrated":
            _check(problems, "calibration", calibration(g, h, w), p["gamma"])
    elif algo == "supersim-expanding":
        g, w = inst.vectors["target"], inst.vectors["d"]
        h = np.asarray(payload["simulator"], dtype=float)
        result = payload["result"]
        if result["updates"] < 1:
            problems.append("planted target got no update")
        catalog = level_catalog(result["fooled_level"])
        _check(problems, "multiaccuracy above level", multiaccuracy(bits, catalog, g, h, w), p["epsilon"])
    elif algo == "supersim-shrinking":
        g, w = inst.vectors["target"], inst.vectors["d"]
        h_prime = np.asarray(payload["simulator_prime"], dtype=float)
        pair = payload["pair"]
        # Each calibrated build starts from a constant and recalibration keeps
        # a constant constant, so a run whose two simulators are both
        # constant made no update.
        if np.ptp(h_prime) == 0.0 and np.ptp(payload["simulator"]) == 0.0:
            problems.append("planted target got no update")
        eps = pair["eps_at_s"]
        catalog = level_catalog(pair["level_s_prime"])
        _check(problems, "multiaccuracy of h'", multiaccuracy(bits, catalog, g, h_prime, w), eps)
        _check(problems, "calibration of h'", calibration(g, h_prime, w), eps)
    elif algo == "verify41":
        mix, g = _mixture(inst.vectors["d0"], inst.vectors["d1"])
        h = np.asarray(payload["simulator"], dtype=float)
        _check(problems, "multiaccuracy", multiaccuracy(bits, ("identity",), g, h, mix), p["epsilon"])
        _check(problems, "calibration", calibration(g, h, mix), p["gamma"])
    else:  # characterize, characterize-super
        d0, d1 = inst.vectors["d0"], inst.vectors["d1"]
        rep = payload["report"]
        mix, g = _mixture(d0, d1)
        gap = max(
            float(np.max(np.abs(np.asarray(rep["instance"]["d_x"]) - mix))),
            float(np.max(np.abs(np.asarray(rep["instance"]["g"]) - g))),
        )
        _check(problems, "mixture identity", gap, 0.0)
        tv = _kfold_tv(d0, d1, p["k"])
        _check(problems, "k-fold TV", abs(rep["audits"]["tv_kfold_true"] - tv), 0.0)
        # Each lifted member reads one coordinate, whose marginal is d0 or d1.
        lift = float(np.max(np.abs(bits @ (d0 - d1))))
        chain = rep["extras"]["chain"]
        if algo == "characterize":
            _check(problems, "lifted family distance", abs(chain["family_distance_lower"] - lift), 0.0)
        else:
            _check(problems, "chain family covers the lift", lift, chain["family_distance_lower"])
    return problems

