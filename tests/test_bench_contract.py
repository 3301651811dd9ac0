"""The benchmark's tracer binds regsim arguments by name.

Each count hook in ``perfbench/tracing.py`` reads the bound arguments of the
function it is registered for as ``a["name"]``.  A renamed parameter would
break the benchmark, not the library tests; this test reads the names the
hooks use from the tracer's source and checks them against the signatures.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def hook_argument_names() -> dict[str, set[str]]:
    """{"layer.function": the names its hook reads as a["name"]}, for every
    ``HOOKS`` entry, from the hook expression and the bodies of the
    module-level functions it names."""
    tree = ast.parse(TRACING.read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (hooks,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "HOOKS" for t in node.targets)
    )

    def subscripts(node):
        return {
            sub.slice.value
            for sub in ast.walk(node)
            if isinstance(sub, ast.Subscript)
            and getattr(sub.value, "id", None) == "a"
            and isinstance(sub.slice, ast.Constant)
        }

    out = {}
    for key, value in zip(hooks.keys, hooks.values):
        named = {n.id for n in ast.walk(value) if isinstance(n, ast.Name) and n.id in defs}
        out[key.value] = subscripts(value).union(*(subscripts(defs[n]) for n in named))
    return out


def test_trace_hooks_bind_existing_parameter_names():
    names = hook_argument_names()
    # the parse finds what the hooks read
    assert names["families.best_response"] == {"family", "dist"}
    for key, read in names.items():
        layer, attr = key.split(".")
        obj = getattr(importlib.import_module(f"regsim.{layer}"), attr, None)
        # a hook may outlive its function (the N^k tuple paths of products)
        if obj is not None:
            params = set(inspect.signature(obj).parameters)
            assert read <= params, f"{key} no longer takes {sorted(read - params)}"
