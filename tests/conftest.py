import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import regsim as rs
from regsim import domain


def empty_build_cache(monkeypatch):
    """Swap in an empty build cache (``domain._cache``) until the test ends,
    and return it."""
    cache = OrderedDict()
    monkeypatch.setattr(domain, "_cache", cache)
    return cache


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty build cache for one test, so a test that counts builds does
    not see what earlier tests kept."""
    return empty_build_cache(monkeypatch)


@pytest.fixture
def uniform2():
    return rs.Distribution.uniform(2)


@pytest.fixture
def g10():
    return rs.BoundedFn(np.array([1.0, 0.0]))


def random_distribution(rng, n):
    raw = rng.gamma(1.0, size=n) + 1e-9
    return rs.Distribution(raw / raw.sum())


def random_bounded(rng, n):
    return rs.BoundedFn(rng.uniform(0.0, 1.0, size=n))


def random_family(rng, n, size, name="rand"):
    members = []
    for i in range(size):
        if rng.uniform() < 0.5:
            members.append((rng.uniform(size=n) > rng.uniform()).astype(float))
        else:
            members.append(rng.uniform(size=n))
    return rs.explicit_family([list(v) for v in members], name=name)


def nested_ladder(rng, n, depth, pad_to=None, members_per_level=1):
    """Random strictly nested explicit-family ladder, optionally padded by
    repeating the top level (shift growth maps climb one level per update)."""
    pool = [np.ones(n)]
    levels = []
    for _ in range(depth):
        for _ in range(members_per_level):
            if rng.uniform() < 0.6:
                pool.append((rng.uniform(size=n) > rng.uniform()).astype(float))
            else:
                pool.append(rng.uniform(size=n))
        levels.append(rs.explicit_family([list(v) for v in pool], name=f"L{len(levels)}"))
    ladder = rs.GradedLadder(levels, name="test-ladder")
    if pad_to is not None:
        ladder = ladder.padded(pad_to)
    return ladder
