"""Span tracing of regsim's layers from outside the package.

``install`` wraps every public function and every public class constructor
defined in a layer module (one module per layer), and rebinds the wrapper
under every name in every ``regsim`` module that binds the original, so
calls between modules (``regsim.boosting.best_response``) and within one
are both seen.  ``Installation.remove`` puts the originals back.  Nothing
under ``src/`` changes.

Spans live in memory as [name, start, end, parent]; counts of work are
recorded by per-function hooks at the same boundaries.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("domain", "kfold", "families", "boosting", "supersim", "products", "config", "runner")
MARK = "_perfbench_traced"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.table_keys: set[str] = set()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()


# ---------------------------------------------------------------------------
# Count hooks: (tracer, bound arguments, result) -> None
# ---------------------------------------------------------------------------


def _cells(t, a, r):
    t.counts["boosting.multicalibration_check.cells"] += len(a["family"]) * a["dist"].size


def _br_bytes(t, a, r):
    t.counts["families.best_response.bytes_computed"] += 8 * len(a["family"]) * a["dist"].size


def _boost_updates(t, a, r):
    t.counts["boosting.updates"] += r[1].update_count


def _expanding_updates(t, a, r):
    t.counts["boosting.updates"] += r.trace.update_count


def _type_table(t, a, r):
    t.counts["kfold.types_built"] += r.num_types
    key = hashlib.sha256(repr((r.k, r.counts.shape)).encode())
    for m in a["measures"]:
        key.update(np.asarray(getattr(m, "weights", m), dtype=float).tobytes())
    t.table_keys.add(key.hexdigest())


def _tuples(n_of, k_of, copies=lambda a: 1):
    def hook(t, a, r):
        t.counts["products.tuples_enumerated"] += copies(a) * n_of(a) ** k_of(a)
    return hook


HOOKS = {
    "boosting.multicalibration_check": _cells,
    "families.best_response": _br_bytes,
    "boosting.multiaccuracy_boost": _boost_updates,
    "boosting.calibrated_multiaccuracy": _boost_updates,
    "boosting.multicalibrate": _boost_updates,
    "supersim.supersimulator_expanding": _expanding_updates,
    "kfold.kfold_type_classes": _type_table,
    "products.tuples_test_values": _tuples(lambda a: a["n"], lambda a: a["test"].k),
    "products.product_distribution": _tuples(lambda a: a["dist"].size, lambda a: a["k"]),
    "products.coordinate_lift": _tuples(lambda a: a["family"].domain_size, lambda a: a["k"]),
    # one product weight vector per hybrid, k + 1 hybrids
    "products.hybrid_bound_check": _tuples(
        lambda a: a["dist_b"].size, lambda a: a["k"], copies=lambda a: a["k"] + 1
    ),
}


def _wrap(fn, name: str, tracer: Tracer):
    hook = HOOKS.get(name)
    sig = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            hook(tracer, sig.bind(*args, **kwargs).arguments, result)
        return result

    setattr(traced, MARK, True)
    return traced


class Installation:
    def __init__(self, patched: list[tuple[object, str, object]]):
        self.patched = patched

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []


def _regsim_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "regsim" or n.startswith("regsim.")]


def install(tracer: Tracer) -> Installation:
    patched = []
    for layer in LAYERS:
        importlib.import_module(f"regsim.{layer}")
    modules = _regsim_modules()
    for layer in LAYERS:
        mod = sys.modules[f"regsim.{layer}"]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj):
                wrapper = _wrap(obj, name, tracer)
                for m in modules:
                    for a, v in list(vars(m).items()):
                        if v is obj:
                            patched.append((m, a, v))
                            setattr(m, a, wrapper)
            elif (
                inspect.isclass(obj)
                and "__init__" in vars(obj)
                and not issubclass(obj, BaseException)
            ):
                init = vars(obj)["__init__"]
                patched.append((obj, "__init__", init))
                setattr(obj, "__init__", _wrap(init, name, tracer))
    return Installation(patched)


def leftover_wrappers() -> list[str]:
    """Names still bound to a wrapper in any regsim module (empty after remove)."""
    found = []
    for m in _regsim_modules():
        for attr, obj in vars(m).items():
            if getattr(obj, MARK, False):
                found.append(f"{m.__name__}.{attr}")
            if inspect.isclass(obj) and getattr(vars(obj).get("__init__"), MARK, False):
                found.append(f"{m.__name__}.{attr}.__init__")
    return found


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s (outermost spans of that name only, so
    recursion is not counted twice) and self_s (span minus its children)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["total_s"] += end - start
    return dict(out)
