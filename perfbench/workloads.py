"""Seeded instance generators for the three benchmark workloads.

A workload is a fixed list of instance *kinds*.  One *round* runs one
instance of every kind, in list order; round r uses instance r mod
POOL_SIZE of each kind.  Every input vector (targets, distributions) is
drawn here from the benchmark seed and handed to regsim as an explicit
vector, so the program receives only generated inputs and the re-audit in
``reaudit.py`` never depends on regsim's own random generators.

This module does not import regsim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Distinct instances generated per kind; later rounds wrap around and
# re-run earlier instances, which re-checks their report digests.
POOL_SIZE = 16

FULL_CATALOG = ("identity", "negation", "min", "max")
# Member catalogs of the supersim-ladder levels, lowest first; padded levels
# repeat the top one.
LADDER_CATALOGS = (
    ("identity",),
    ("identity", "negation"),
    ("identity", "negation", "min"),
    FULL_CATALOG,
)
KFOLD_EPS = 0.1
VERIFY_GAMMA = 0.01
SUPERSIM_EPS = 0.1
SHRINK_ALPHA = 0.1


def updates_bound(eps: float) -> int:
    """ceil(1/(3 eps^2)) + 1, the boost update cap every constructor uses."""
    return math.ceil(1.0 / (3.0 * eps * eps)) + 1


@dataclass(frozen=True)
class Kind:
    """One instance shape of a workload."""

    name: str
    algorithm: str
    bits: int  # the domain has 2**bits points, or ``size`` if given
    params: dict
    size: int | None = None
    pad_to: int = 0  # ladder depth, for the ladder-based algorithms

    @property
    def n(self) -> int:
        return self.size if self.size is not None else 2 ** self.bits


@dataclass(frozen=True)
class Instance:
    """A generated input: the kind plus its seeded vectors."""

    kind: Kind
    index: int
    vectors: dict  # name -> float64 array

    @property
    def ident(self) -> str:
        return f"{self.kind.name}#{self.index}"

    def config(self) -> dict:
        """The run_config document; vectors become plain lists (JSON shape)."""
        kind = self.kind
        vec = {name: arr.tolist() for name, arr in self.vectors.items()}
        cfg = {
            "domain": {"size": kind.n, "bit_width": kind.bits},
            "algorithm": kind.algorithm,
            "params": dict(kind.params),
        }
        if "target" in vec:
            cfg["target"] = vec.pop("target")
        cfg["distributions"] = vec  # "d", or "d0" and "d1"
        algo = kind.algorithm
        if algo in ("boost", "calibrated", "multicalibrate"):
            cfg["family"] = _family_spec(FULL_CATALOG)
        elif algo in ("characterize", "verify41"):
            cfg["family"] = _coordinate()
            if algo == "verify41":
                cfg["simulator"] = {"kind": "calibrated"}
        elif algo == "characterize-super":
            cfg["ladder"] = _ladder_spec(LADDER_CATALOGS[:2], kind.pad_to)
            cfg["growth"] = {"kind": "shift", "by": 1}
        else:
            cfg["ladder"] = _ladder_spec(LADDER_CATALOGS, kind.pad_to)
            cfg["growth"] = {"kind": "shift", "by": 1}
            if algo == "supersim-shrinking":
                cfg["schedule"] = {
                    "kind": "geometric", "start": 0.03, "factor": 0.8,
                    "depth": kind.pad_to, "floor": 0.01,
                }
        return cfg


def _coordinate() -> dict:
    return {"builder": "coordinate"}


def _compose(catalog, s1: int) -> dict:
    return {
        "builder": "compose",
        "base": _coordinate(),
        "s1": s1,
        "s2": 1,
        "catalog": list(catalog),
    }


def _family_spec(catalog) -> dict:
    if tuple(catalog) == ("identity",):
        return _coordinate()
    s1 = 2 if ("min" in catalog or "max" in catalog) else 1
    return _compose(catalog, s1)


def _ladder_spec(catalogs, pad_to: int) -> dict:
    return {"levels": [_family_spec(c) for c in catalogs], "pad_to": pad_to}


def _boost_kind(algorithm: str, bits: int, params: dict) -> Kind:
    return Kind(f"{algorithm}/N={2 ** bits}", algorithm, bits, params)


def _kfold_kinds(n: int, k: int, bits: int) -> list[Kind]:
    tag = f"N={n},k={k}"
    return [
        Kind(f"characterize/{tag}", "characterize", bits,
             {"epsilon": KFOLD_EPS, "k": k, "mode": "two-proxy"}, size=n),
        Kind(f"characterize-super/{tag}", "characterize-super", bits,
             {"epsilon": KFOLD_EPS, "k": k, "mode": "two-proxy"}, size=n,
             pad_to=updates_bound(KFOLD_EPS) + 2),
        Kind(f"verify41/{tag}", "verify41", bits,
             {"epsilon": KFOLD_EPS, "gamma": VERIFY_GAMMA, "k": k}, size=n),
    ]


def _shrink_kind(bits: int) -> Kind:
    depth = int(1.0 / SHRINK_ALPHA) + 3
    return Kind(
        f"supersim-shrinking/N={2 ** bits}", "supersim-shrinking", bits,
        {"alpha": SHRINK_ALPHA}, pad_to=depth,
    )


def _expand_kind(bits: int) -> Kind:
    return Kind(
        f"supersim-expanding/N={2 ** bits}", "supersim-expanding", bits,
        {"epsilon": SUPERSIM_EPS}, pad_to=updates_bound(SUPERSIM_EPS) + 2,
    )


WORKLOADS: dict[str, tuple[Kind, ...]] = {
    "boost-wide": (
        _boost_kind("boost", 14, {"epsilon": 0.02}),
        _boost_kind("calibrated", 14, {"epsilon": 0.02, "gamma": 0.005}),
        _boost_kind("multicalibrate", 13, {"epsilon": 0.05}),
    ),
    "kfold-proxy": tuple(
        kind
        for n, k, bits in ((8, 6, 3), (12, 4, 4), (4, 9, 2))
        for kind in _kfold_kinds(n, k, bits)
    ),
    "supersim-ladder": (
        _expand_kind(8),
        _expand_kind(9),
        _shrink_kind(8),
        _shrink_kind(9),
        _shrink_kind(10),
    ),
}

# The instance every warm-up runs twice to check that reports are
# deterministic: the cheapest kind of each workload.
DETERMINISM_KIND = {
    "boost-wide": "calibrated/N=16384",
    "kfold-proxy": "verify41/N=12,k=4",
    "supersim-ladder": "supersim-shrinking/N=256",
}


# ---------------------------------------------------------------------------
# Member values, computed here without regsim
# ---------------------------------------------------------------------------


def bit_matrix(bits: int, n: int | None = None) -> np.ndarray:
    """(bits, n) 0/1 matrix; row i is bit i of the element, MSB first."""
    x = np.arange(2 ** bits if n is None else n)
    return np.stack([((x >> (bits - 1 - i)) & 1).astype(float) for i in range(bits)])


def member_count(bits: int, catalog) -> int:
    sizes = {"identity": bits, "negation": bits, "min": bits * bits, "max": bits * bits}
    return sum(sizes[c] for c in catalog)


def member_values(bits: int, catalog, index: int) -> np.ndarray:
    """Values of member ``index`` of compose(coordinate, catalog), enumerated
    in catalog order and, for pairs, row-major over (i, j)."""
    b = bit_matrix(bits)
    for comb in catalog:
        count = bits if comb in ("identity", "negation") else bits * bits
        if index < count:
            if comb == "identity":
                return b[index]
            if comb == "negation":
                return 1.0 - b[index]
            i, j = divmod(index, bits)
            return np.minimum(b[i], b[j]) if comb == "min" else np.maximum(b[i], b[j])
        index -= count
    raise IndexError("member index outside the family")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _rng(seed: int, workload: str, kind_pos: int, index: int) -> np.random.Generator:
    tag = sorted(WORKLOADS).index(workload)
    return np.random.default_rng([seed, tag, kind_pos, index])


def _distribution(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.gamma(1.0, size=n) + 1e-12
    return raw / raw.sum()


def _planted_target(rng: np.random.Generator, bits: int, catalog, first: int = 0) -> np.ndarray:
    """0.5 plus three seeded members (indices >= first) with coefficients of
    magnitude U[0.3, 0.45], plus N(0, 0.02) noise, clipped to [0, 1].

    A random target against these families gets no boost update at all.
    One coefficient is positive and one negative, so the target does not sit
    on the clip at 0 or 1, where low ladder levels would see no signal.
    """
    total = member_count(bits, catalog)
    picks = rng.choice(np.arange(first, total), size=3, replace=False)
    signs = np.array([1.0, -1.0, rng.choice([-1.0, 1.0])])
    coefs = rng.uniform(0.3, 0.45, size=3) * signs
    g = np.full(2 ** bits, 0.5)
    for c, idx in zip(coefs, picks):
        g += c * member_values(bits, catalog, int(idx))
    g += rng.normal(0.0, 0.02, size=g.size)
    return np.clip(g, 0.0, 1.0)


def generate(workload: str, kind_pos: int, index: int, seed: int) -> Instance:
    kind = WORKLOADS[workload][kind_pos]
    rng = _rng(seed, workload, kind_pos, index)
    if workload == "kfold-proxy":
        vectors = {"d0": _distribution(rng, kind.n), "d1": _distribution(rng, kind.n)}
    elif workload == "boost-wide":
        vectors = {
            "target": _planted_target(rng, kind.bits, FULL_CATALOG),
            "d": _distribution(rng, kind.n),
        }
    else:
        # Plant on the top level's max members so the run must climb.  The
        # expanding run's first best response comes from level 1 (bits and
        # their negations) against h = 1/2; redraw the rare instance on
        # which that level sees no correlation clearly above eps, since such
        # a run could end without any update.
        first = member_count(kind.bits, ("identity", "negation", "min"))
        for _ in range(100):
            target = _planted_target(rng, kind.bits, FULL_CATALOG, first)
            d = _distribution(rng, kind.n)
            if _level1_signal(kind.bits, target, d) > 1.2 * SUPERSIM_EPS:
                break
        else:
            raise RuntimeError("no planted target with a first-step signal")
        vectors = {"target": target, "d": d}
    return Instance(kind, index, vectors)


def _level1_signal(bits: int, g: np.ndarray, w: np.ndarray) -> float:
    """max |E_w[f (g - 1/2)]| over the coordinate bits f and their negations."""
    r = w * (g - 0.5)
    ident = bit_matrix(bits) @ r
    return float(max(np.abs(ident).max(), np.abs(r.sum() - ident).max()))


def generate_pool(workload: str, seed: int) -> list[list[Instance]]:
    """pool[kind_pos][index] for every kind of the workload."""
    return [
        [generate(workload, pos, i, seed) for i in range(POOL_SIZE)]
        for pos in range(len(WORKLOADS[workload]))
    ]


def level_catalog(level: int):
    """Catalog of a (padded) supersim-ladder level."""
    return LADDER_CATALOGS[min(level, len(LADDER_CATALOGS) - 1)]


def sizes(workload: str) -> list[dict]:
    """Instance sizes of every kind: N, m (family, or top ladder level, size)
    and the accuracy parameters (eps, gamma, alpha, k)."""
    out = []
    for kind in WORKLOADS[workload]:
        if kind.algorithm in ("characterize", "verify41"):
            catalog = ("identity",)
        elif kind.algorithm == "characterize-super":
            catalog = LADDER_CATALOGS[1]
        else:
            catalog = FULL_CATALOG
        out.append({"kind": kind.name, "N": kind.n, "m": member_count(kind.bits, catalog), **kind.params})
    return out
