"""Experiment configuration: schema, validation, and object construction.

Configs are single JSON documents.  Unknown fields are rejected everywhere
(fail closed, so a typo in a parameter name cannot silently change an
experiment), and validate() reports every violation it can find rather than
stopping at the first.  A seed is mandatory as soon as any randomized
generator appears in the config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Any

import numpy as np

from .domain import BoundedFn, Distribution, FiniteDomain
from .errors import RegsimError, ValidationError
from .families import (
    ErrorSchedule,
    Family,
    GradedLadder,
    GrowthMap,
    STANDARD_COMBINATORS,
    build_coordinate_family,
    build_rectangle_family,
    build_threshold_family,
    compose_level,
    explicit_family,
)

ALGORITHMS = (
    "boost",
    "calibrated",
    "multicalibrate",
    "supersim-expanding",
    "supersim-shrinking",
    "verify41",
    "verify-two-proxy",
    "verify42",
    "verify-single-proxy",
    "characterize",
    "characterize-super",
)

# Wire tokens mapping to the descriptive verification entry points.
ALGORITHM_ALIASES = {
    "verify-two-proxy": "verify41",
    "verify-single-proxy": "verify42",
}

_TOP_KEYS = {
    "domain": True,
    "algorithm": True,
    "params": True,
    "seed": False,
    "target": False,
    "simulator": False,
    "distributions": False,
    "family": False,
    "ladder": False,
    "growth": False,
    "schedule": False,
    "output": False,
}

_PARAM_KEYS = {"epsilon", "gamma", "alpha", "k", "mode", "max_iters"}

_NEEDS = {
    "boost": {"target", "dist", "family", "epsilon"},
    "calibrated": {"target", "dist", "family", "epsilon", "gamma"},
    "multicalibrate": {"target", "dist", "family", "epsilon"},
    "supersim-expanding": {"target", "dist", "ladder", "growth", "epsilon"},
    "supersim-shrinking": {"target", "dist", "ladder", "growth", "schedule", "alpha"},
    "verify41": {"d0", "d1", "family", "epsilon", "gamma", "k"},
    "verify42": {"d0", "d1", "family", "epsilon", "gamma", "k"},
    "characterize": {"d0", "d1", "family", "epsilon", "k"},
    "characterize-super": {"d0", "d1", "ladder", "growth", "epsilon", "k"},
}


@dataclass
class Diagnostics:
    problems: list[str] = field(default_factory=list)

    def add(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")

    @property
    def ok(self) -> bool:
        return not self.problems


def _check_keys(obj: dict, path: str, spec: dict[str, bool], diags: Diagnostics) -> bool:
    if not isinstance(obj, dict):
        diags.add(path, f"expected an object, got {type(obj).__name__}")
        return False
    ok = True
    for key, required in spec.items():
        if required and key not in obj:
            diags.add(f"{path}.{key}", "missing required field")
            ok = False
    for key in obj:
        if key not in spec:
            diags.add(f"{path}.{key}", "unknown field (fail-closed: check spelling)")
            ok = False
    return ok


def _uses_rng(obj: Any) -> bool:
    if isinstance(obj, dict):
        if obj.get("kind") == "random":
            return True
        return any(_uses_rng(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_uses_rng(v) for v in obj)
    return False


class ConfigContext:
    """Carries the parsed domain and rng while building config objects."""

    def __init__(self, domain: FiniteDomain, seed: int | None):
        self.domain = domain
        self.rng = np.random.default_rng(seed) if seed is not None else None
        self.target: BoundedFn | None = None

    def require_rng(self, path: str) -> np.random.Generator:
        if self.rng is None:
            raise ValidationError(f"{path}: randomized generator used without a seed")
        return self.rng


def build_distribution(spec: Any, ctx: ConfigContext, path: str) -> Distribution:
    n = ctx.domain.size
    if isinstance(spec, list):
        if len(spec) != n:
            raise ValidationError(f"{path}: vector length {len(spec)} != domain size {n}")
        return Distribution(np.asarray(spec, dtype=float))
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: expected a vector or generator object")
    kind = spec.get("kind")
    if kind == "uniform":
        _only_keys(spec, {"kind"}, path)
        return Distribution.uniform(n)
    if kind == "random":
        _only_keys(spec, {"kind", "concentration"}, path)
        conc = float(spec.get("concentration", 1.0))
        if conc <= 0:
            raise ValidationError(f"{path}.concentration: must be positive")
        raw = ctx.require_rng(path).gamma(conc, size=n) + 1e-12
        return Distribution(raw / raw.sum())
    if kind == "two_point":
        _only_keys(spec, {"kind", "i", "j", "p"}, path)
        i, j, p = int(spec["i"]), int(spec["j"]), float(spec["p"])
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"{path}: indices outside the domain")
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"{path}.p: must lie in [0, 1]")
        w = np.zeros(n)
        w[i] += 1.0 - p
        w[j] += p
        return Distribution(w)
    raise ValidationError(f"{path}.kind: unknown distribution kind {kind!r}")


def build_function(spec: Any, ctx: ConfigContext, path: str) -> BoundedFn:
    n = ctx.domain.size
    if isinstance(spec, list):
        if len(spec) != n:
            raise ValidationError(f"{path}: vector length {len(spec)} != domain size {n}")
        return BoundedFn(np.asarray(spec, dtype=float))
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: expected a vector or generator object")
    kind = spec.get("kind")
    if kind == "random":
        _only_keys(spec, {"kind"}, path)
        return BoundedFn(ctx.require_rng(path).uniform(0.0, 1.0, size=n))
    if kind == "constant":
        _only_keys(spec, {"kind", "value"}, path)
        return BoundedFn.constant(n, float(spec["value"]))
    if kind == "indicator":
        _only_keys(spec, {"kind", "index"}, path)
        idx = int(spec["index"])
        if not (0 <= idx < n):
            raise ValidationError(f"{path}.index: outside the domain")
        return BoundedFn.indicator(n, idx)
    raise ValidationError(f"{path}.kind: unknown function kind {kind!r}")


def build_family(spec: Any, ctx: ConfigContext, path: str) -> Family:
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: expected a family builder object")
    builder = spec.get("builder")
    if builder == "coordinate":
        _only_keys(spec, {"builder"}, path)
        return build_coordinate_family(ctx.domain)
    if builder == "threshold":
        _only_keys(spec, {"builder", "grid", "source"}, path)
        grid = spec.get("grid")
        if not isinstance(grid, list) or not grid:
            raise ValidationError(f"{path}.grid: expected a nonempty list")
        source = spec.get("source", "target")
        if source == "target":
            if ctx.target is None:
                raise ValidationError(f"{path}.source: no target available to threshold")
            h = ctx.target
        else:
            h = build_function(source, ctx, f"{path}.source")
        return build_threshold_family(h, grid)
    if builder == "rectangle":
        _only_keys(spec, {"builder", "rows", "cols"}, path)
        rows, cols = int(spec["rows"]), int(spec["cols"])
        if rows * cols != ctx.domain.size:
            raise ValidationError(
                f"{path}: rows*cols = {rows * cols} != domain size {ctx.domain.size}"
            )
        return build_rectangle_family(rows, cols)
    if builder == "explicit":
        _only_keys(spec, {"builder", "members"}, path)
        members = spec.get("members")
        if not isinstance(members, list) or not members:
            raise ValidationError(f"{path}.members: expected a nonempty list of vectors")
        for i, vec in enumerate(members):
            if not isinstance(vec, list) or len(vec) != ctx.domain.size:
                raise ValidationError(
                    f"{path}.members[{i}]: expected a vector of length {ctx.domain.size}"
                )
        return explicit_family(members, name="explicit")
    if builder == "compose":
        _only_keys(spec, {"builder", "base", "s1", "s2", "catalog"}, path)
        base = build_family(spec.get("base"), ctx, f"{path}.base")
        catalog_names = spec.get("catalog")
        if not isinstance(catalog_names, list) or not catalog_names:
            raise ValidationError(f"{path}.catalog: expected a nonempty list of names")
        catalog = []
        for name in catalog_names:
            if name not in STANDARD_COMBINATORS:
                raise ValidationError(
                    f"{path}.catalog: unknown combinator {name!r}; "
                    f"known: {sorted(STANDARD_COMBINATORS)}"
                )
            catalog.append(STANDARD_COMBINATORS[name]())
        return compose_level(base, int(spec["s1"]), int(spec["s2"]), catalog)
    raise ValidationError(f"{path}.builder: unknown builder {builder!r}")


def build_ladder(spec: Any, ctx: ConfigContext, path: str) -> GradedLadder:
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: expected a ladder object")
    _only_keys(spec, {"levels", "pad_to"}, path)
    levels_spec = spec.get("levels")
    if not isinstance(levels_spec, list) or not levels_spec:
        raise ValidationError(f"{path}.levels: expected a nonempty list of family builders")
    levels = [
        build_family(s, ctx, f"{path}.levels[{i}]") for i, s in enumerate(levels_spec)
    ]
    ladder = GradedLadder(levels)
    pad_to = spec.get("pad_to")
    if pad_to is not None:
        ladder = ladder.padded(int(pad_to))
    return ladder


def build_growth(spec: Any, ladder: GradedLadder, path: str) -> GrowthMap:
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: expected a growth object")
    kind = spec.get("kind")
    if kind == "identity":
        _only_keys(spec, {"kind"}, path)
        return GrowthMap.identity(ladder)
    if kind == "shift":
        _only_keys(spec, {"kind", "by"}, path)
        return GrowthMap.shift(ladder, int(spec.get("by", 1)))
    if kind == "explicit":
        _only_keys(spec, {"kind", "map"}, path)
        table = spec.get("map")
        if not isinstance(table, list) or len(table) != ladder.depth:
            raise ValidationError(f"{path}.map: expected a list of length {ladder.depth}")
        return GrowthMap.explicit(ladder, [int(t) for t in table])
    raise ValidationError(f"{path}.kind: unknown growth kind {kind!r}")


def build_schedule(spec: Any, path: str) -> ErrorSchedule:
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: expected a schedule object")
    kind = spec.get("kind")
    if kind == "constant":
        _only_keys(spec, {"kind", "value"}, path)
        return ErrorSchedule.constant(float(spec["value"]))
    if kind == "geometric":
        _only_keys(spec, {"kind", "start", "factor", "depth", "floor"}, path)
        return ErrorSchedule.geometric(
            float(spec["start"]),
            float(spec["factor"]),
            int(spec["depth"]),
            float(spec.get("floor", 1e-3)),
        )
    if kind == "explicit":
        _only_keys(spec, {"kind", "values"}, path)
        values = spec.get("values")
        if not isinstance(values, list) or not values:
            raise ValidationError(f"{path}.values: expected a nonempty list")
        return ErrorSchedule([float(v) for v in values])
    raise ValidationError(f"{path}.kind: unknown schedule kind {kind!r}")


def _only_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}: unknown field (fail-closed: check spelling)")


def canonical_algorithm(name: str) -> str:
    return ALGORITHM_ALIASES.get(name, name)


def validate_config(config: Any) -> list[str]:
    """Schema plus precondition checks without execution; returns every
    violation found, not just the first."""
    diags = Diagnostics()
    if not _check_keys(config, "config", _TOP_KEYS, diags):
        return diags.problems

    try:
        domain = FiniteDomain.from_json(config["domain"])
    except (RegsimError, KeyError, TypeError) as exc:
        diags.add("config.domain", str(exc))
        return diags.problems

    algorithm = config.get("algorithm")
    if algorithm not in ALGORITHMS:
        diags.add("config.algorithm", f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
        return diags.problems
    algo = canonical_algorithm(algorithm)

    params = config.get("params", {})
    if isinstance(params, dict):
        for key in params:
            if key not in _PARAM_KEYS:
                diags.add(f"config.params.{key}", "unknown field (fail-closed: check spelling)")
    else:
        diags.add("config.params", "expected an object")
        params = {}

    if _uses_rng(config) and config.get("seed") is None:
        diags.add("config.seed", "seed is mandatory when any randomized generator is used")

    needs = _NEEDS[algo]
    dists = config.get("distributions", {})
    if not isinstance(dists, dict):
        diags.add("config.distributions", "expected an object")
        dists = {}
    else:
        for key in dists:
            if key not in ("d", "d0", "d1"):
                diags.add(f"config.distributions.{key}", "unknown field")

    def need(where: str) -> None:
        diags.add(where, f"required by algorithm {algorithm!r}")

    if "target" in needs and "target" not in config:
        need("config.target")
    if "dist" in needs and "d" not in dists:
        need("config.distributions.d")
    for dkey in ("d0", "d1"):
        if dkey in needs and dkey not in dists:
            need(f"config.distributions.{dkey}")
    if "family" in needs and "family" not in config:
        need("config.family")
    if "ladder" in needs and "ladder" not in config:
        need("config.ladder")
    if "growth" in needs and "growth" not in config:
        need("config.growth")
    if "schedule" in needs and "schedule" not in config:
        need("config.schedule")

    # Every numeric parameter is type-checked wherever it appears; a
    # malformed one is named once and left out of the range checks below.
    num = {}
    for key in ("epsilon", "gamma", "alpha", "k", "max_iters"):
        value = params.get(key)
        integer = key in ("k", "max_iters")
        if value is None:
            if key in needs:
                diags.add(f"config.params.{key}", f"required by algorithm {algorithm!r}")
        elif isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
            kind = "an integer" if integer else "a number"
            diags.add(f"config.params.{key}", f"expected {kind}, got {value!r}")
        elif integer and value < 1:
            diags.add(f"config.params.{key}", f"{key} must be >= 1")
        else:
            num[key] = value
    eps, gamma, alpha = num.get("epsilon"), num.get("gamma"), num.get("alpha")
    if "epsilon" in needs and eps is not None:
        if algo == "multicalibrate":
            if not (0.0 < eps < 1.0):
                diags.add("config.params.epsilon", "epsilon must lie in (0, 1)")
        elif not (0.0 < eps < 0.5):
            diags.add("config.params.epsilon", "epsilon must lie in (0, 0.5)")
    if "gamma" in needs and gamma is not None:
        if algo == "verify41":
            if not (0.0 < gamma < 0.1):
                diags.add("config.params.gamma", "gamma must lie in (0, 1/10)")
        elif algo == "verify42":
            if eps is not None and not (0.0 < gamma < eps / 2.0):
                diags.add("config.params.gamma", "gamma must lie in (0, epsilon/2)")
        elif eps is not None and not (0.0 < gamma <= eps):
            diags.add("config.params.gamma", "gamma must lie in (0, epsilon]")
    if "alpha" in needs and alpha is not None and not (0.0 < alpha < 0.5):
        diags.add("config.params.alpha", "alpha must lie in (0, 0.5)")
    mode = params.get("mode")
    if mode is not None and mode not in ("two-proxy", "single-proxy"):
        diags.add("config.params.mode", "mode must be 'two-proxy' or 'single-proxy'")

    # Construction dry run: builders enforce the structural invariants
    # (ladder nesting, grid sortedness, ...), so exercise them here.
    ctx = ConfigContext(domain, config.get("seed"))
    try:
        if "target" in config:
            ctx.target = build_function(config["target"], ctx, "config.target")
        for dkey in ("d", "d0", "d1"):
            if dkey in dists:
                build_distribution(dists[dkey], ctx, f"config.distributions.{dkey}")
        if "simulator" in config and isinstance(config["simulator"], list):
            build_function(config["simulator"], ctx, "config.simulator")
        family = None
        if "family" in config:
            family = build_family(config["family"], ctx, "config.family")
        ladder = None
        if "ladder" in config:
            ladder = build_ladder(config["ladder"], ctx, "config.ladder")
        if "growth" in config:
            if ladder is None:
                diags.add("config.growth", "growth map needs a ladder")
            else:
                build_growth(config["growth"], ladder, "config.growth")
        if "schedule" in config:
            build_schedule(config["schedule"], "config.schedule")
    except RegsimError as exc:
        diags.add("config", str(exc))
    return diags.problems


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
