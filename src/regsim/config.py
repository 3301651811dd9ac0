"""Experiment configuration: schema, validation, and object construction.

Configs are single JSON documents.  Unknown fields are rejected everywhere
(fail closed, so a typo in a parameter name cannot silently change an
experiment).  plan_config validates a config and builds every object its run
reads once, reporting every violation it can find rather than stopping at
the first.  A seed is mandatory as soon as any randomized generator is built.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Any, Callable, Sequence

import numpy as np

from .domain import MIN_ACCURACY, BoundedFn, Distribution, FiniteDomain, _cached, _nbytes
from .errors import RegsimError, ValidationError
from .families import (
    Combinator,
    ErrorSchedule,
    Family,
    GradedLadder,
    GrowthMap,
    STANDARD_COMBINATORS,
    build_coordinate_family,
    build_rectangle_family,
    build_threshold_family,
    compose_entries,
    compose_level,
    compose_levels,
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

# Built fields in the order a run draws them from the seeded generator: the
# target first, then the fields the algorithm reads, then the rest (built
# only to validate them).
_FIELDS = ("target", "d", "d0", "d1", "family", "ladder", "growth", "schedule", "simulator")
_DISTS = ("d", "d0", "d1")
_NUMERIC = {"epsilon": float, "gamma": float, "alpha": float, "k": int, "max_iters": int}

_TOP_KEYS = {
    "domain": True,
    "algorithm": True,
    "params": True,
    "seed": False,
    "distributions": False,
    "output": False,
    **{name: False for name in _FIELDS if name not in _DISTS},
}

_PARAM_KEYS = {*_NUMERIC, "mode"}

# Deepest ladder a config may ask for through ``pad_to``, and longest
# geometric schedule ``depth``.  2^16 levels cover the updates_bound(epsilon)
# levels a shift-by-1 run can climb for every epsilon >= 0.0023, and the
# per-level tables (the padded list, a growth map, the schedule's values)
# stay within a few MiB.
_MAX_LADDER_DEPTH = 1 << 16

# Largest domain a config may ask for: one vector over it is 128 MiB.  A
# coordinate encoding reads int64 element indices, so at most 64 bits.
_MAX_DOMAIN_SIZE = 1 << 24
_MAX_BIT_WIDTH = 64

# What each algorithm reads; a verify run reads an optional simulator.
_NEEDS = {
    "boost": {"target", "d", "family", "epsilon"},
    "calibrated": {"target", "d", "family", "epsilon", "gamma"},
    "multicalibrate": {"target", "d", "family", "epsilon"},
    "supersim-expanding": {"target", "d", "ladder", "growth", "epsilon"},
    "supersim-shrinking": {"target", "d", "ladder", "growth", "schedule", "alpha"},
    "verify41": {"d0", "d1", "family", "simulator", "epsilon", "gamma", "k"},
    "verify42": {"d0", "d1", "family", "simulator", "epsilon", "gamma", "k"},
    "characterize": {"d0", "d1", "family", "epsilon", "k"},
    "characterize-super": {"d0", "d1", "ladder", "growth", "epsilon", "k"},
}


@dataclass
class Diagnostics:
    problems: list[str] = field(default_factory=list)

    def add(self, path: str, message: str) -> None:
        self.problems.append(f"{path}: {message}")


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


class ConfigContext:
    """Carries the parsed domain and rng while building config objects."""

    def __init__(self, domain: FiniteDomain, seed: int | None):
        self.domain = domain
        self.rng = np.random.default_rng(seed) if seed is not None else None
        self.target: BoundedFn | None = None

    def require_rng(self, path: str) -> np.random.Generator:
        if self.rng is None:
            raise ValidationError(f"{path}: seed is mandatory when a randomized generator is used")
        return self.rng


_REQUIRED = object()


def _field(spec: dict, key: str, path: str, kind: Any = float, default: Any = _REQUIRED) -> Any:
    """``spec[key]`` as ``kind`` (see ``_typed``), or ``default`` when absent;
    a missing required or mistyped field is a ValidationError naming it."""
    if key not in spec:
        if default is _REQUIRED:
            raise ValidationError(f"{path}.{key}: missing required field")
        return default
    return _typed(spec[key], f"{path}.{key}", kind)


def _typed(value: Any, where: str, kind: Any) -> Any:
    """``value`` as a float or int, or (``kind`` [float] or [int]) as a
    nonempty sequence of them; bools, numeric strings and integers beyond
    double range (for floats) are rejected."""
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ValidationError(f"{where}: expected a nonempty list")
        if kind[0] is float and set(map(type, value)) <= {float, int}:
            try:
                return np.asarray(value, dtype=float)
            except OverflowError:
                pass  # the per-element path names the problem
        return [_typed(v, where, kind[0]) for v in value]
    if isinstance(value, bool) or not isinstance(value, Integral if kind is int else Real):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{where}: expected {noun}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ValidationError(
            f"{where}: expected a number within double range, got an integer "
            f"of {len(str(abs(value)))} digits"
        ) from None


def _vector(spec: Any, path: str, n: int) -> Sequence[float]:
    values = _typed(spec, path, [float])
    if len(values) != n:
        raise ValidationError(f"{path}: vector length {len(values)} != domain size {n}")
    return values


def build_distribution(spec: Any, ctx: ConfigContext, path: str) -> Distribution:
    n = ctx.domain.size
    if isinstance(spec, list):
        return Distribution(_vector(spec, path, n))
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: expected a vector or generator object")
    kind = spec.get("kind")
    if kind == "uniform":
        _only_keys(spec, {"kind"}, path)
        return Distribution.uniform(n)
    if kind == "random":
        _only_keys(spec, {"kind", "concentration"}, path)
        conc = _field(spec, "concentration", path, default=1.0)
        if conc <= 0:
            raise ValidationError(f"{path}.concentration: must be positive")
        raw = ctx.require_rng(path).gamma(conc, size=n) + 1e-12
        return Distribution(raw / raw.sum())
    if kind == "two_point":
        _only_keys(spec, {"kind", "i", "j", "p"}, path)
        i, j = _field(spec, "i", path, int), _field(spec, "j", path, int)
        p = _field(spec, "p", path)
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
        return BoundedFn(_vector(spec, path, n))
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: expected a vector or generator object")
    kind = spec.get("kind")
    if kind == "random":
        _only_keys(spec, {"kind"}, path)
        return BoundedFn(ctx.require_rng(path).uniform(0.0, 1.0, size=n))
    if kind == "constant":
        _only_keys(spec, {"kind", "value"}, path)
        return BoundedFn.constant(n, _field(spec, "value", path))
    if kind == "indicator":
        _only_keys(spec, {"kind", "index"}, path)
        idx = _field(spec, "index", path, int)
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
        grid = _field(spec, "grid", path, [float])
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
        rows, cols = _field(spec, "rows", path, int), _field(spec, "cols", path, int)
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
        rows = [_vector(v, f"{path}.members[{i}]", ctx.domain.size) for i, v in enumerate(members)]
        return explicit_family(rows, name="explicit")
    if builder == "compose":
        return compose_level(*_compose_request(spec, ctx, path, build_family))
    raise ValidationError(f"{path}.builder: unknown builder {builder!r}")


def _compose_request(
    spec: dict, ctx: ConfigContext, path: str, build_base: Callable[..., Family]
) -> tuple[Family, int, int, tuple[Combinator, ...]]:
    """(base, s1, s2, entries) of a compose spec, the base built by
    ``build_base(spec, ctx, path)`` and the entries those of its catalog
    that fit (s1, s2) (``compose_entries``); a request ``compose_level``
    would refuse is refused here, under ``path``."""
    _only_keys(spec, {"builder", "base", "s1", "s2", "catalog"}, path)
    base = build_base(spec.get("base"), ctx, f"{path}.base")
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
    s1, s2 = _field(spec, "s1", path, int), _field(spec, "s2", path, int)
    try:
        entries = compose_entries(base, s1, s2, catalog)
    except RegsimError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    return base, s1, s2, entries


def _shared_key(spec: Any) -> str | None:
    """Canonical JSON of a builder spec that draws nothing from the seeded
    generator, or None for a spec that does (or is not JSON): equal keys
    build equal families, and a spec that draws must be built where the
    run would draw it."""

    def draws(node: Any) -> bool:
        return isinstance(node, dict) and (
            node.get("kind") == "random" or any(draws(v) for v in node.values())
        )

    if draws(spec):
        return None
    try:
        return json.dumps(spec, sort_keys=True)
    except (TypeError, ValueError):
        return None


_PLAIN = (str, int, float, bool, type(None))


def _reads_only_the_domain(node: Any) -> bool:
    """Whether a ladder spec builds from the domain alone, so one build
    serves every run over that domain: it holds nothing but plain JSON
    types (a tuple or a numpy scalar would serialize like a list or a
    number the builders treat differently), no ``"kind": "random"`` node
    and no threshold builder whose ``source`` is missing or "target"."""
    kind = type(node)
    if kind is list:
        return all(map(_reads_only_the_domain, node))
    if kind is not dict:
        return kind in _PLAIN
    return (
        all(type(k) is str and _reads_only_the_domain(v) for k, v in node.items())
        and node.get("kind") != "random"
        and not (node.get("builder") == "threshold" and node.get("source", "target") == "target")
    )


def _ladder_bytes(ladder: GradedLadder) -> int:
    """A ladder's charge in the build cache: its distinct buffers, each
    counted once, so a repeated level and the views ``compose_levels``
    hands out cost nothing beyond their top level's."""
    return _nbytes(arr for lvl in set(ladder.levels) for arr in (lvl.matrix, lvl.rows, lvl.firsts))


def build_ladder(spec: Any, ctx: ConfigContext, path: str) -> GradedLadder:
    """The ladder of ``spec``, each of its distinct families built once.

    A spec that draws nothing from the generator is built once and shared
    by every equal spec, a level or a compose base.  Compose levels over
    such a base are composed together (``compose_levels``), so a level
    whose catalog leads a wider level's over the same base holds that
    level's leading rows.  Every level's spec is read and checked, in
    level order, before anything is composed, so a bad level is named as
    a level-by-level build would name it.

    A ladder whose spec reads nothing but the domain is built once per
    process: it is kept in the library's one build cache
    (``domain._cached``) under (domain size, bit width, canonical JSON of
    the spec), charged its distinct buffers and its key against the
    shared 64 MiB budget.  A ladder that draws from the seeded generator
    or reads the target, and a failed build, are never kept.
    """

    def build() -> GradedLadder:
        if not isinstance(spec, dict):
            raise ValidationError(f"{path}: expected a ladder object")
        _only_keys(spec, {"levels", "pad_to"}, path)
        levels_spec = spec.get("levels")
        if not isinstance(levels_spec, list) or not levels_spec:
            raise ValidationError(f"{path}.levels: expected a nonempty list of family builders")
        built: dict[str, Family] = {}

        def shared(spec: Any, ctx: ConfigContext, path: str) -> Family:
            key = _shared_key(spec)
            if key is None:
                return build_family(spec, ctx, path)
            if key not in built:
                built[key] = build_family(spec, ctx, path)
            return built[key]

        # each level is a Family, or the index of its compose request
        levels: list[Family | int] = []
        requests: list[tuple[Family, int, int, tuple[Combinator, ...]]] = []
        for i, s in enumerate(levels_spec):
            where = f"{path}.levels[{i}]"
            if isinstance(s, dict) and s.get("builder") == "compose" and _shared_key(s) is not None:
                levels.append(len(requests))
                requests.append(_compose_request(s, ctx, where, shared))
            else:
                levels.append(shared(s, ctx, where))
        pad_to = _field(spec, "pad_to", path, int, default=len(levels))
        if pad_to < len(levels):
            raise ValidationError(
                f"{path}.pad_to: at least the {len(levels)} listed levels, got {pad_to}"
            )
        if pad_to > _MAX_LADDER_DEPTH:
            raise ValidationError(
                f"{path}.pad_to: at most {_MAX_LADDER_DEPTH} levels, got {pad_to}"
            )
        composed = compose_levels(requests)
        levels = [composed[lvl] if isinstance(lvl, int) else lvl for lvl in levels]
        # Padding repeats the top level, as GradedLadder.padded does; building
        # the full list first constructs and nesting-checks the ladder once.
        levels += [levels[-1]] * (pad_to - len(levels))
        return GradedLadder(levels)

    key = _shared_key(spec) if _reads_only_the_domain(spec) else None
    if key is None:
        return build()
    domain = ctx.domain
    return _cached(
        ("ladder", domain.size, domain.bit_width, key),
        build,
        lambda ladder: _ladder_bytes(ladder) + sys.getsizeof(key),
    )


def build_growth(spec: Any, ladder: GradedLadder, path: str) -> GrowthMap:
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: expected a growth object")
    kind = spec.get("kind")
    if kind == "identity":
        _only_keys(spec, {"kind"}, path)
        return GrowthMap.identity(ladder)
    if kind == "shift":
        _only_keys(spec, {"kind", "by"}, path)
        return GrowthMap.shift(ladder, _field(spec, "by", path, int, default=1))
    if kind == "explicit":
        _only_keys(spec, {"kind", "map"}, path)
        table = _field(spec, "map", path, [int])
        if len(table) != ladder.depth:
            raise ValidationError(f"{path}.map: expected a list of length {ladder.depth}")
        return GrowthMap.explicit(ladder, table)
    raise ValidationError(f"{path}.kind: unknown growth kind {kind!r}")


def build_schedule(spec: Any, path: str) -> ErrorSchedule:
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: expected a schedule object")
    kind = spec.get("kind")
    if kind == "constant":
        _only_keys(spec, {"kind", "value"}, path)
        return ErrorSchedule.constant(_field(spec, "value", path))
    if kind == "geometric":
        _only_keys(spec, {"kind", "start", "factor", "depth", "floor"}, path)
        depth = _field(spec, "depth", path, int)
        if depth > _MAX_LADDER_DEPTH:
            raise ValidationError(
                f"{path}.depth: at most {_MAX_LADDER_DEPTH} levels, got {depth}"
            )
        return ErrorSchedule.geometric(
            _field(spec, "start", path),
            _field(spec, "factor", path),
            depth,
            _field(spec, "floor", path, default=1e-3),
        )
    if kind == "explicit":
        _only_keys(spec, {"kind", "values"}, path)
        return ErrorSchedule(_field(spec, "values", path, [float]))
    raise ValidationError(f"{path}.kind: unknown schedule kind {kind!r}")


def _only_keys(obj: dict, allowed: set[str], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ValidationError(f"{path}.{key}: unknown field (fail-closed: check spelling)")


@dataclass(frozen=True)
class Plan:
    """A validated config with every object its run reads built once.

    ``algorithm`` is the canonical name; a field the config leaves out is
    None, and a None ``simulator`` means the run builds a calibrated one.
    """

    algorithm: str
    target: BoundedFn | None
    d: Distribution | None
    d0: Distribution | None
    d1: Distribution | None
    family: Family | None
    ladder: GradedLadder | None
    growth: GrowthMap | None
    schedule: ErrorSchedule | None
    simulator: BoundedFn | None
    epsilon: float | None
    gamma: float | None
    alpha: float | None
    k: int | None
    max_iters: int | None
    mode: str


def validate_config(config: Any) -> list[str]:
    """Schema plus precondition checks without execution; returns every
    violation found, not just the first."""
    return plan_config(config)[1]


def plan_config(config: Any) -> tuple[Plan | None, list[str]]:
    """Validate a config and build everything its run reads, once: (plan, [])
    when valid, else (None, every violation found).

    A ladder whose spec reads nothing but the domain comes from the
    library's one build cache (see ``build_ladder``), so a process builds
    it once; no other field is kept across runs."""
    diags = Diagnostics()
    if not _check_keys(config, "config", _TOP_KEYS, diags):
        return None, diags.problems

    try:
        domain = FiniteDomain.from_json(config["domain"])
    except (RegsimError, KeyError, TypeError) as exc:
        diags.add("config.domain", str(exc))
        return None, diags.problems
    if domain.size > _MAX_DOMAIN_SIZE:
        diags.add("config.domain.size", f"at most {_MAX_DOMAIN_SIZE} points, got {domain.size}")
    if (domain.bit_width or 0) > _MAX_BIT_WIDTH:
        diags.add("config.domain.bit_width", f"at most {_MAX_BIT_WIDTH}, got {domain.bit_width}")
    if diags.problems:
        return None, diags.problems

    algorithm = config.get("algorithm")
    if algorithm not in ALGORITHMS:
        diags.add("config.algorithm", f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
        return None, diags.problems
    algo = ALGORITHM_ALIASES.get(algorithm, algorithm)

    params = config.get("params", {})
    if isinstance(params, dict):
        for key in params:
            if key not in _PARAM_KEYS:
                diags.add(f"config.params.{key}", "unknown field (fail-closed: check spelling)")
    else:
        diags.add("config.params", "expected an object")
        params = {}

    seed = config.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0):
        diags.add("config.seed", f"expected a nonnegative integer, got {seed!r}")
        seed = None
    output = config.get("output")
    if output is not None and not isinstance(output, str):
        diags.add("config.output", "expected a string path")

    needs = _NEEDS[algo]
    dists = config.get("distributions", {})
    if not isinstance(dists, dict):
        diags.add("config.distributions", "expected an object")
        dists = {}
    else:
        for key in dists:
            if key not in _DISTS:
                diags.add(f"config.distributions.{key}", "unknown field")

    def spec_and_path(name: str) -> tuple[Any, str]:
        if name in _DISTS:
            return dists.get(name), f"config.distributions.{name}"
        return config.get(name), f"config.{name}"

    for name in _FIELDS[:-1]:  # a simulator is never required
        spec, path = spec_and_path(name)
        if name in needs and spec is None:
            diags.add(path, f"required by algorithm {algorithm!r}")

    # Every numeric parameter is type-checked wherever it appears; a
    # malformed one is named once and left out of the range checks below.
    num = {}
    for key, kind in _NUMERIC.items():
        if params.get(key) is None:
            if key in needs:
                diags.add(f"config.params.{key}", f"required by algorithm {algorithm!r}")
            continue
        try:
            value = _typed(params[key], f"config.params.{key}", kind)
        except ValidationError as exc:
            diags.problems.append(str(exc))
            continue
        if kind is int and value < 1:
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
    for key in ("epsilon", "gamma", "alpha"):
        if key in needs and 0.0 < num.get(key, 1.0) < MIN_ACCURACY:
            diags.add(f"config.params.{key}", f"{key} must be at least 2^-100")
    mode = params.get("mode", "two-proxy")
    if mode not in ("two-proxy", "single-proxy"):
        diags.add("config.params.mode", "mode must be 'two-proxy' or 'single-proxy'")

    # Build once, in the order a run draws from the generator; the builders
    # enforce the structural invariants (ladder nesting, grid order, ...).
    ctx = ConfigContext(domain, seed)
    reads = [f for f in _FIELDS[1:] if f in needs]
    built: dict[str, Any] = {}
    try:
        for name in ["target"] + reads + [f for f in _FIELDS[1:] if f not in reads]:
            spec, path = spec_and_path(name)
            if spec is None:
                continue
            if name == "target":
                built[name] = ctx.target = build_function(spec, ctx, path)
            elif name in _DISTS:
                built[name] = build_distribution(spec, ctx, path)
            elif name == "family":
                built[name] = build_family(spec, ctx, path)
            elif name == "ladder":
                built[name] = build_ladder(spec, ctx, path)
            elif name == "growth":
                if "ladder" not in built:
                    diags.add(path, "growth map needs a ladder")
                else:
                    built[name] = build_growth(spec, built["ladder"], path)
            elif name == "schedule":
                built[name] = build_schedule(spec, path)
            elif not (isinstance(spec, dict) and spec.get("kind") == "calibrated"):
                built[name] = build_function(spec, ctx, path)
    except RegsimError as exc:
        # a builder names its own field; a library check inside it names
        # none, so file it under the field being built
        message = str(exc)
        diags.problems.append(message if message.startswith("config.") else f"{path}: {message}")
    if diags.problems:
        return None, diags.problems
    return Plan(
        algorithm=algo,
        **{name: built.get(name) for name in _FIELDS},
        **{key: num.get(key) for key in _NUMERIC},
        mode=mode,
    ), []


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
