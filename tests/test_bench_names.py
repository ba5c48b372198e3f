"""The traced benchmark run wraps lcmech functions and methods by name.

``bench/spans.py`` looks each name up at install time, so a rename in
lcmech breaks the traced run; this test makes it break tier-1 too.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _spans():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_functions_exist():
    for module, attr in _spans().FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_traced_methods_are_defined_on_their_classes():
    for module, cls, attr, _ in _spans().METHODS:
        owner = getattr(importlib.import_module(module), cls)
        assert callable(owner.__dict__.get(attr)), (module, cls, attr)
