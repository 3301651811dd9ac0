"""``Inequality.passes`` is the library's one tolerance rule for a claim.

Every check in ``src/regsim`` states its claim as a ``domain.Inequality`` and
raises through ``Inequality.require``, so ``DERIVED_TOL`` is read only by
``domain.py`` and by two comparisons that are not claims:
``boosting._boost``'s stop rule, which decides when a run ends, and
``kfold.kfold_type_classes``' check that its input measures sum to one.  This
test reads every use of the name from the sources.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "regsim"
ALLOWED = {("boosting", "_boost"), ("kfold", "kfold_type_classes")}


def tolerance_reads() -> list[tuple[str, str, int]]:
    """(module, top-level definition, line) of every read of DERIVED_TOL,
    bare or as an attribute, outside domain.py."""
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "domain":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                bare = isinstance(node, ast.Name) and node.id == "DERIVED_TOL"
                if bare or (isinstance(node, ast.Attribute) and node.attr == "DERIVED_TOL"):
                    reads.append((path.stem, getattr(top, "name", "<module>"), node.lineno))
    return reads


def test_derived_tol_is_read_only_by_domain_and_two_rules_that_are_not_claims():
    reads = tolerance_reads()
    # the parse finds the reads that are allowed
    assert {(module, where) for module, where, _ in reads} >= ALLOWED
    stray = [read for read in reads if read[:2] not in ALLOWED]
    assert stray == [], f"state these as an Inequality and require it: {stray}"
