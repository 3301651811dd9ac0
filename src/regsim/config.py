"""Experiment configuration: schema, validation, and object construction.

Configs are single JSON documents.  Unknown fields are rejected everywhere
(fail closed, so a typo in a parameter name cannot silently change an
experiment).  plan_config validates a config and builds every object its run
reads once, reporting every violation it can find rather than stopping at
the first.  A seed is mandatory as soon as any randomized generator is built.

ALGORITHMS is the one table of what each algorithm reads: fields, params
and parameter rules, each rule the library's own precondition, the code a
run calls (``BoostParams``, ``supersim._expanding_rounds``, ...), so validate
and run refuse a parameter with one text; no parameter range is stated here.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, make_dataclass
from numbers import Integral, Real
from typing import Any, Callable, Sequence

import numpy as np

from .boosting import BoostParams, _check_multicalibrate
from .domain import BoundedFn, Distribution, FiniteDomain, _cached, _nbytes, _quoted
from .errors import RegsimError, ValidationError
from .families import (
    STANDARD_COMBINATORS, ErrorSchedule, Family, GradedLadder, GrowthMap, build_coordinate_family,
    build_rectangle_family, build_threshold_family, compose_level, explicit_family,
)
from .kfold import _check_kfold_reach
from .products import _check_verify_gamma, _fit_params, _proxy_mode
from .supersim import _expanding_rounds, _shrinking_rounds

_REQUIRED = object()


@dataclass(frozen=True)
class _Algorithm:
    """What one algorithm reads: built ``fields`` (a simulator is never
    required), ``params`` (name -> default, _REQUIRED when the config must
    give it) and ``rules``, each (param a refusal is filed under, library
    check, names of the params or domain ``size`` it is called with), run in
    order but for a rule that reads a refused value.  A verification fixes
    its proxy ``mode`` and has a wire ``alias``."""

    fields: tuple[str, ...]
    params: dict[str, Any]
    rules: tuple[tuple[str, Callable, tuple[str, ...]], ...]
    mode: str | None = None
    alias: str | None = None


_R = _REQUIRED
_EPSILON = ("epsilon", BoostParams, ("epsilon",))
_BOOST = (_EPSILON, ("max_iters", BoostParams, ("epsilon", "max_iters")))
# Proxy rules in the order _fit_and_verify checks them; the plan skips
# _fit_params for a verification given a simulator, which makes no fit.
_PROXY = (
    _EPSILON, ("mode", _proxy_mode, ("mode", "epsilon")), ("k", _check_kfold_reach, ("size", "k"))
)
_VERIFY = dict(
    fields=("d0", "d1", "family", "simulator"),
    params={"epsilon": _R, "gamma": _R, "k": _R},
    rules=_PROXY + (
        ("gamma", _fit_params, ("mode", "epsilon", "gamma")),
        ("gamma", _check_verify_gamma, ("mode", "epsilon", "gamma")),
    ),
)
_CHARACTERIZE = dict(
    params={"epsilon": _R, "k": _R, "mode": "two-proxy"},
    rules=_PROXY + (("epsilon", _fit_params, ("mode", "epsilon")),),
)
_BOOSTED, _SUPERSIM = ("target", "d", "family"), ("target", "d", "ladder", "growth")
ALGORITHMS = {
    "boost": _Algorithm(_BOOSTED, {"epsilon": _R, "max_iters": None}, _BOOST),
    "calibrated": _Algorithm(_BOOSTED, {"epsilon": _R, "gamma": _R, "max_iters": None}, _BOOST + (
        ("gamma", BoostParams, ("epsilon", "max_iters", "gamma")),
    )),
    "multicalibrate": _Algorithm(_BOOSTED, {"epsilon": _R, "max_iters": None}, (
        ("epsilon", _check_multicalibrate, ("epsilon",)),
        ("max_iters", _check_multicalibrate, ("epsilon", "max_iters")),
    )),
    "supersim-expanding": _Algorithm(
        _SUPERSIM, {"epsilon": _R}, (("epsilon", _expanding_rounds, ("epsilon",)),)
    ),
    "supersim-shrinking": _Algorithm(
        _SUPERSIM + ("schedule",), {"alpha": _R}, (("alpha", _shrinking_rounds, ("alpha",)),)
    ),
    "verify41": _Algorithm(**_VERIFY, mode="two-proxy", alias="verify-two-proxy"),
    "verify42": _Algorithm(**_VERIFY, mode="single-proxy", alias="verify-single-proxy"),
    "characterize": _Algorithm(("d0", "d1", "family"), **_CHARACTERIZE),
    "characterize-super": _Algorithm(("d0", "d1", "ladder", "growth"), **_CHARACTERIZE),
}
# Every accepted algorithm token, each wire alias after its canonical name.
_NAMES = {token: name for name, a in ALGORITHMS.items() for token in (name, a.alias) if token}
_PARAMS = {
    "epsilon": float, "gamma": float, "alpha": float, "k": int, "max_iters": int, "mode": str
}

_DISTS = ("d", "d0", "d1")
_TOP_KEYS = ("domain", "algorithm", "params", "seed", "distributions", "output",
             "target", "family", "ladder", "growth", "schedule", "simulator")

# Deepest ladder ``pad_to`` and longest geometric schedule ``depth``: 2^16
# levels cover the updates_bound(epsilon) levels a shift-by-1 run climbs for
# epsilon >= 0.0023, and the per-level tables stay within a few MiB.
_MAX_LADDER_DEPTH = 1 << 16

# Largest domain a config may ask for: one vector over it is 128 MiB.  A
# coordinate encoding reads int64 element indices, so at most 64 bits.
_MAX_DOMAIN_SIZE = 1 << 24
_MAX_BIT_WIDTH = 64

# Widest integer a config field may hold; a wider one is refused before
# anything formats it (str() of an int past 4,300 digits raises).
_MAX_INT_BITS = 64

# Bytes a level of a kept growth map is charged in the build cache (127 a
# level under tracemalloc at 5,000 levels, CPython 3.11).
_GROWTH_LEVEL_BYTES = 128


def _refusal(path: str, exc: Exception) -> str:
    """A refusal filed under ``path`` unless its message names a field."""
    message = str(exc)
    return message if message.startswith("config.") else f"{path}: {message}"


def _unknown(obj: dict, allowed: Sequence[str], path: str) -> list[str]:
    """A problem for each key of ``obj`` outside ``allowed``."""
    return [
        f"{path}.{key if isinstance(key, str) else _quoted(key)}: unknown field "
        "(fail-closed: check spelling)"
        for key in obj if key not in allowed
    ]


class ConfigContext:
    """Carries the parsed domain and rng while building config objects."""

    def __init__(self, domain: FiniteDomain, seed: int | None):
        self.domain = domain
        self.rng = np.random.default_rng(seed) if seed is not None else None
        self.target: BoundedFn | None = None
        # (cache key, pad_to) of a ladder from the build cache
        self.ladder_key: tuple | None = None

    def require_rng(self, path: str) -> np.random.Generator:
        if self.rng is None:
            raise ValidationError(f"{path}: seed is mandatory when a randomized generator is used")
        return self.rng


def _field(spec: dict, key: str, path: str, kind: Any = float, default: Any = _REQUIRED) -> Any:
    """``spec[key]`` as ``kind`` (see ``_typed``), or ``default`` when absent;
    a missing required or mistyped field is a ValidationError naming it."""
    if key not in spec:
        if default is _REQUIRED:
            raise ValidationError(f"{path}.{key}: missing required field")
        return default
    return _typed(spec[key], f"{path}.{key}", kind)


def _typed(value: Any, where: str, kind: Any) -> Any:
    """``value`` as a str, float or int, or (``kind`` [float] or [int]) as a
    nonempty sequence of numbers; bools, numeric strings, integers of more
    than 64 bits (for ints) and integers beyond double range (for floats)
    are rejected, a wide integer described by its bit length."""
    if kind is str:
        if not isinstance(value, str):
            raise ValidationError(f"{where}: expected a string, got {type(value).__name__}")
        return value
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ValidationError(f"{where}: expected a nonempty list")
        if kind[0] is float and set(map(type, value)) <= {float, int}:
            try:
                return np.asarray(value, dtype=float)
            except OverflowError:
                pass  # the per-element path names the problem
        return [_typed(v, where, kind[0]) for v in value]
    if isinstance(value, bool) or not isinstance(value, (kind, Integral if kind is int else Real)):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{where}: expected {noun}, got {_quoted(value)}")
    if kind is int and int(value).bit_length() > _MAX_INT_BITS:
        raise ValidationError(
            f"{where}: expected an integer of at most {_MAX_INT_BITS} bits, "
            f"got one of {int(value).bit_length()} bits"
        )
    try:
        return kind(value)
    except OverflowError:
        raise ValidationError(
            f"{where}: expected a number within double range, got an integer "
            f"of {int(value).bit_length()} bits"
        ) from None


def _vector(spec: Any, path: str, n: int) -> Sequence[float]:
    values = _typed(spec, path, [float])
    if len(values) != n:
        raise ValidationError(f"{path}: vector length {len(values)} != domain size {n}")
    return values


def _kind(spec: Any, path: str, kinds: dict, what: str, noun: str, key: str = "kind") -> str:
    """``spec[key]``, once ``spec`` is a ``what`` object whose ``key`` is
    one of ``kinds`` and whose other keys that kind lists."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: expected a {what} object")
    kind = spec.get(key)
    if not (isinstance(kind, str) and kind in kinds):
        raise ValidationError(f"{path}.{key}: unknown {noun} {_quoted(kind)}")
    for problem in _unknown(spec, (key, *kinds[kind]), path):
        raise ValidationError(problem)
    return kind


def build_distribution(spec: Any, ctx: ConfigContext, path: str) -> Distribution:
    n = ctx.domain.size
    if isinstance(spec, list):
        return Distribution(_vector(spec, path, n))
    kinds = {"uniform": (), "random": ("concentration",), "two_point": ("i", "j", "p")}
    kind = _kind(spec, path, kinds, "vector or generator", "distribution kind")
    if kind == "uniform":
        return Distribution.uniform(n)
    if kind == "random":
        conc = _field(spec, "concentration", path, default=1.0)
        if conc <= 0:
            raise ValidationError(f"{path}.concentration: must be positive")
        raw = ctx.require_rng(path).gamma(conc, size=n) + 1e-12
        return Distribution(raw / raw.sum())
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


def build_function(spec: Any, ctx: ConfigContext, path: str) -> BoundedFn:
    n = ctx.domain.size
    if isinstance(spec, list):
        return BoundedFn(_vector(spec, path, n))
    kinds = {"random": (), "constant": ("value",), "indicator": ("index",)}
    kind = _kind(spec, path, kinds, "vector or generator", "function kind")
    if kind == "random":
        return BoundedFn(ctx.require_rng(path).uniform(0.0, 1.0, size=n))
    if kind == "constant":
        return BoundedFn.constant(n, _field(spec, "value", path))
    idx = _field(spec, "index", path, int)
    if not (0 <= idx < n):
        raise ValidationError(f"{path}.index: outside the domain")
    return BoundedFn.indicator(n, idx)


def build_family(spec: Any, ctx: ConfigContext, path: str) -> Family:
    kinds = {"coordinate": (), "threshold": ("grid", "source"), "rectangle": ("rows", "cols"),
             "explicit": ("members",), "compose": ("base", "s1", "s2", "catalog")}
    builder = _kind(spec, path, kinds, "family builder", "builder", key="builder")
    if builder == "coordinate":
        return build_coordinate_family(ctx.domain)
    if builder == "threshold":
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
        rows, cols = _field(spec, "rows", path, int), _field(spec, "cols", path, int)
        if rows * cols != ctx.domain.size:
            raise ValidationError(
                f"{path}: rows*cols = {rows * cols} != domain size {ctx.domain.size}"
            )
        return build_rectangle_family(rows, cols)
    if builder == "explicit":
        members = spec.get("members")
        if not isinstance(members, list) or not members:
            raise ValidationError(f"{path}.members: expected a nonempty list of vectors")
        rows = [_vector(v, f"{path}.members[{i}]", ctx.domain.size) for i, v in enumerate(members)]
        return explicit_family(rows, name="explicit")
    base = build_family(spec.get("base"), ctx, f"{path}.base")
    catalog_names = spec.get("catalog")
    if not isinstance(catalog_names, list) or not catalog_names:
        raise ValidationError(f"{path}.catalog: expected a nonempty list of names")
    for name in catalog_names:
        if not (isinstance(name, str) and name in STANDARD_COMBINATORS):
            raise ValidationError(
                f"{path}.catalog: unknown combinator {_quoted(name)}; "
                f"known: {sorted(STANDARD_COMBINATORS)}"
            )
    s1, s2 = _field(spec, "s1", path, int), _field(spec, "s2", path, int)
    catalog = [STANDARD_COMBINATORS[name] for name in catalog_names]
    try:
        return compose_level(base, s1, s2, catalog)
    except RegsimError as exc:
        raise ValidationError(f"{path}: {exc}") from None


_PLAIN = (str, int, float, bool, type(None))


def _reads_only_the_domain(node: Any, above: tuple[int, ...] = ()) -> bool:
    """Whether a spec builds from the domain alone, so one build serves
    every run over it: it holds only plain JSON types (a tuple or numpy
    scalar serializes like a list or number the builders treat apart, an
    int past 64 bits is refused, and a list or dict inside itself, whose
    ids ``above`` holds, has no JSON form), no ``"kind": "random"`` node and
    no threshold builder whose ``source`` is missing or "target"."""
    kind = type(node)
    if kind is list or kind is dict:
        if id(node) in above:
            return False
        above += (id(node),)
    if kind is list:
        return all(_reads_only_the_domain(v, above) for v in node)
    if kind is int:
        return node.bit_length() <= _MAX_INT_BITS
    if kind is not dict:
        return kind in _PLAIN
    return (
        all(type(k) is str and _reads_only_the_domain(v, above) for k, v in node.items())
        and node.get("kind") != "random"
        and not (node.get("builder") == "threshold" and node.get("source", "target") == "target")
    )


def build_ladder(spec: Any, ctx: ConfigContext, path: str) -> GradedLadder:
    """The ladder of ``spec``: each listed level built on its own by
    ``build_family``, in level order, then padded to ``pad_to`` levels by
    repeating the top one (``GradedLadder.padded``).

    A ladder whose levels read nothing but the domain is built once per
    process: the unpadded ladder is kept in the library's one build cache
    (``domain._cached``) under (domain size, bit width, canonical JSON of
    ``levels``), charged its levels' buffers and its key, so specs that
    differ only in ``pad_to`` share it; ``ctx.ladder_key`` records the key
    and ``pad_to``.  A ladder that draws from the seeded generator or reads
    the target, and a failed build, are never kept."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{path}: expected a ladder object")
    for problem in _unknown(spec, ("levels", "pad_to"), path):
        raise ValidationError(problem)
    levels = spec.get("levels")
    if not isinstance(levels, list) or not levels:
        raise ValidationError(f"{path}.levels: expected a nonempty list of family builders")

    def build() -> GradedLadder:
        return GradedLadder(
            build_family(level, ctx, f"{path}.levels[{i}]") for i, level in enumerate(levels)
        )

    key = None
    if _reads_only_the_domain(levels):
        text = json.dumps(levels, sort_keys=True)
        key = ("ladder", ctx.domain.size, ctx.domain.bit_width, text)
        ladder = _cached(key, build, lambda ladder: sys.getsizeof(text) + _nbytes(
            arr for lvl in ladder.levels for arr in (lvl.matrix, lvl.rows, lvl.firsts)
        ))
    else:
        ladder = build()
    pad_to = _field(spec, "pad_to", path, int, default=len(levels))
    if pad_to < len(levels):
        raise ValidationError(
            f"{path}.pad_to: at least the {len(levels)} listed levels, got {pad_to}"
        )
    if pad_to > _MAX_LADDER_DEPTH:
        raise ValidationError(f"{path}.pad_to: at most {_MAX_LADDER_DEPTH} levels, got {pad_to}")
    ctx.ladder_key = None if key is None else (key, pad_to)
    return ladder.padded(pad_to)


def build_growth(spec: Any, ladder: GradedLadder, path: str) -> GrowthMap:
    kinds = {"identity": (), "shift": ("by",), "explicit": ("map",)}
    kind = _kind(spec, path, kinds, "growth", "growth kind")
    if kind == "identity":
        return GrowthMap.identity(ladder)
    if kind == "shift":
        return GrowthMap.shift(ladder, _field(spec, "by", path, int, default=1))
    table = _field(spec, "map", path, [int])
    if len(table) != ladder.depth:
        raise ValidationError(f"{path}.map: expected a list of length {ladder.depth}")
    return GrowthMap.explicit(ladder, table)


def build_schedule(spec: Any, path: str) -> ErrorSchedule:
    kinds = {"constant": ("value",), "geometric": ("start", "factor", "depth", "floor"),
             "explicit": ("values",)}
    kind = _kind(spec, path, kinds, "schedule", "schedule kind")
    if kind == "constant":
        return ErrorSchedule.constant(_field(spec, "value", path))
    if kind == "explicit":
        return ErrorSchedule(_field(spec, "values", path, [float]))
    depth = _field(spec, "depth", path, int)
    if depth > _MAX_LADDER_DEPTH:
        raise ValidationError(f"{path}.depth: at most {_MAX_LADDER_DEPTH} levels, got {depth}")
    return ErrorSchedule.geometric(
        _field(spec, "start", path),
        _field(spec, "factor", path),
        depth,
        _field(spec, "floor", path, default=1e-3),
    )


def _build_growth(spec: Any, ctx: ConfigContext, path: str, built: dict) -> GrowthMap:
    """``build_growth`` on the planned ladder; over a ladder from the build
    cache, a growth map of a plain-JSON spec is kept there too, under the
    ladder's key, ``pad_to`` and the spec's canonical JSON."""
    if "ladder" not in built:
        raise ValidationError(f"{path}: growth map needs a ladder")
    ladder = built["ladder"]
    if ctx.ladder_key is None or not _reads_only_the_domain(spec):
        return build_growth(spec, ladder, path)
    text = json.dumps(spec, sort_keys=True)
    return _cached(
        ("growth", *ctx.ladder_key, text),
        lambda: build_growth(spec, ladder, path),
        lambda growth: _GROWTH_LEVEL_BYTES * growth.depth + sys.getsizeof(text),
    )


# Each field's builder, in the order a run draws them from the seeded
# generator: the target first, then the fields the algorithm reads, then
# the rest (built only to validate them).  Builders are called by their
# module-level names, so a rebound builder is the one used.
_BUILDERS: dict[str, Callable[[Any, ConfigContext, str, dict], Any]] = {
    "target": lambda spec, ctx, path, built: build_function(spec, ctx, path),
    **dict.fromkeys(_DISTS, lambda spec, ctx, path, built: build_distribution(spec, ctx, path)),
    "family": lambda spec, ctx, path, built: build_family(spec, ctx, path),
    "ladder": lambda spec, ctx, path, built: build_ladder(spec, ctx, path),
    "growth": _build_growth,
    "schedule": lambda spec, ctx, path, built: build_schedule(spec, path),
    "simulator": lambda spec, ctx, path, built: build_function(spec, ctx, path),
}


Plan = make_dataclass("Plan", ["algorithm", *_BUILDERS, *_PARAMS], frozen=True, namespace={
    "__module__": __name__,
    "__doc__": """A validated config with every object its run reads built once: the
    canonical ``algorithm``, each field of _BUILDERS and each param of _PARAMS
    (None when left out with no default; a None ``simulator`` means the run
    fits one, and ``mode`` is a verification's by its algorithm).""",
})


def validate_config(config: Any) -> list[str]:
    """Every violation ``plan_config`` finds in ``config``, not just the first."""
    return plan_config(config)[1]


def plan_config(config: Any) -> tuple[Plan | None, list[str]]:
    """Validate a config and build everything its run reads, once: (plan, [])
    when valid, else (None, every violation found).

    The algorithm's entry in ALGORITHMS says what is checked: each field it
    reads is required, each param it reads is present or defaulted (every
    param is typed wherever it appears), and its rules run on those values.
    A ladder whose levels read nothing but the domain, and a growth map over
    it, come from the library's one build cache (see ``build_ladder``), so a
    process builds them once; no other field is kept across runs."""
    if not isinstance(config, dict):
        return None, [f"config: expected an object, got {type(config).__name__}"]
    problems = [f"config.{key}: missing required field" for key in _TOP_KEYS[:3]
                if key not in config]
    problems += _unknown(config, _TOP_KEYS, "config")
    if problems:
        return None, problems

    spec = config["domain"]
    try:
        for key in ("size", "bit_width"):
            if isinstance(spec, dict) and type(spec.get(key)) is int:
                _typed(spec[key], f"config.domain.{key}", int)
        domain = FiniteDomain.from_json(spec)
    except (RegsimError, KeyError, TypeError) as exc:
        return None, [_refusal("config.domain", exc)]
    if domain.size > _MAX_DOMAIN_SIZE:
        problems.append(f"config.domain.size: at most {_MAX_DOMAIN_SIZE} points, got {domain.size}")
    if (domain.bit_width or 0) > _MAX_BIT_WIDTH:
        problems.append(
            f"config.domain.bit_width: at most {_MAX_BIT_WIDTH}, got {domain.bit_width}"
        )
    algorithm = config["algorithm"]
    name = _NAMES.get(algorithm) if isinstance(algorithm, str) else None
    if name is None and not problems:
        problems.append(
            f"config.algorithm: unknown algorithm {_quoted(algorithm)}; known: {tuple(_NAMES)}"
        )
    if problems:
        return None, problems
    entry = ALGORITHMS[name]

    objects = {}
    for key, allowed in (("params", _PARAMS), ("distributions", _DISTS)):
        objects[key] = config.get(key, {})
        if not isinstance(objects[key], dict):
            problems.append(f"config.{key}: expected an object")
            objects[key] = {}
        problems += _unknown(objects[key], allowed, f"config.{key}")
    params, dists = objects["params"], objects["distributions"]
    seed = config.get("seed")
    try:
        if seed is not None and _typed(seed, "config.seed", int) < 0:
            raise ValidationError(f"config.seed: expected a nonnegative integer, got {seed}")
    except ValidationError as exc:
        problems.append(str(exc))
        seed = None
    output = config.get("output")
    if output is not None and not isinstance(output, str):
        problems.append("config.output: expected a string path")

    specs = {
        field: (dists.get(field), f"config.distributions.{field}") if field in _DISTS
        else (config.get(field), f"config.{field}")
        for field in _BUILDERS
    }
    problems += [
        f"{specs[field][1]}: required by algorithm {_quoted(algorithm)}"
        for field in entry.fields if specs[field][0] is None and field != "simulator"
    ]

    # Every param is typed wherever it appears; a malformed one, or a
    # missing one the algorithm needs, is named once and skips the rules
    # that read it.
    values, refused = {"size": domain.size}, set()
    for key, kind in _PARAMS.items():
        default = entry.params.get(key)
        try:
            if params.get(key) is not None:
                values[key] = _typed(params[key], f"config.params.{key}", kind)
            elif default is _REQUIRED:
                raise ValidationError(
                    f"config.params.{key}: required by algorithm {_quoted(algorithm)}"
                )
            else:
                values[key] = default
        except ValidationError as exc:
            problems.append(str(exc))
            refused.add(key)
    values["mode"] = entry.mode or values.get("mode")
    sim = config.get("simulator")
    fits = sim is None or (isinstance(sim, dict) and sim.get("kind") == "calibrated")
    for param, check, args in entry.rules:
        if not refused.isdisjoint(args) or (check is _fit_params and entry.mode and not fits):
            continue
        try:
            check(*map(values.__getitem__, args))
        except RegsimError as exc:
            problems.append(f"config.params.{param}: {exc}")
            refused.add(param)

    # Build once, in the order a run draws from the generator; the builders
    # enforce the structural invariants (ladder nesting, grid order, ...).
    ctx, built, path = ConfigContext(domain, seed), {}, "config"
    try:
        for field in sorted(_BUILDERS, key=lambda f: (f != "target", f not in entry.fields)):
            spec, path = specs[field]
            if spec is not None and not (field == "simulator" and fits):
                built[field] = _BUILDERS[field](spec, ctx, path, built)
            if field == "target":
                ctx.target = built.get(field)
    except RegsimError as exc:
        problems.append(_refusal(path, exc))
    if problems:
        return None, problems
    fields = {field: built.get(field) for field in _BUILDERS}
    return Plan(algorithm=name, **fields, **{key: values.get(key) for key in _PARAMS}), []


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
