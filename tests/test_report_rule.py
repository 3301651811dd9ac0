"""``domain.Reported`` is the library's one rule for a result's report form.

A result's JSON form is its dataclass fields by name, each field declared
once: every class in ``src/regsim`` that has a ``to_json`` inherits it from
``Reported``, except the five whose JSON is not their field dict, each named
below with its reason.  This test reads every class of every module.
"""

import importlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from regsim.domain import UNREPORTED, BoundedFn, Reported

SRC = Path(__file__).resolve().parents[1] / "src" / "regsim"
HAND_WRITTEN = {
    "Inequality": "adds its slack and verdict to its fields",
    "MulticalibrationAudit": "adds its verdict to its fields",
    "ComplexityLabel": "is the pair [s1, s2]",
    "BoundedFn": "is its value vector",
    "Distribution": "is its weight vector",
}


def reporting_classes() -> list[type]:
    """Every class defined in a regsim module that has a ``to_json``."""
    found = []
    for path in sorted(SRC.glob("[!_]*.py")):
        module = importlib.import_module(f"regsim.{path.stem}")
        found += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__ and hasattr(obj, "to_json")
        ]
    return found


def test_only_the_named_classes_write_their_own_report_form():
    classes = [cls for cls in reporting_classes() if cls is not Reported]
    own = sorted(cls.__name__ for cls in classes if "to_json" in vars(cls))
    assert own == sorted(HAND_WRITTEN), "inherit to_json from domain.Reported"
    # the scan finds the classes that follow the rule
    ruled = [cls.__name__ for cls in classes if cls.to_json is Reported.to_json]
    assert {"FiniteDomain", "TraceRecord", "SupersimResult", "PairResult"} <= set(ruled)
    assert len(ruled) + len(own) == len(classes)


def test_report_form_is_the_fields_without_none_or_unreported():
    @dataclass(frozen=True)
    class Result(Reported):
        count: int
        values: tuple
        simulator: BoundedFn
        note: str | None = None
        scratch: np.ndarray = field(default=None, metadata=UNREPORTED)

    fn = BoundedFn(np.array([0.25, 1.0]))
    result = Result(3, (fn, 0.5), fn, scratch=np.zeros(2))
    assert result.to_json() == {"count": 3, "values": [[0.25, 1.0], 0.5], "simulator": [0.25, 1.0]}
    assert Result(0, (), fn, note="n").to_json()["note"] == "n"
