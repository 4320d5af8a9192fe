"""perfbench/tracer.py binds every traced function by name at start-up, with
no default; a library deletion that breaks one of those bindings must fail
here, not only in a traced benchmark run."""

import importlib
from pathlib import Path


def test_traced_functions_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    traced = importlib.import_module("tracer").TRACED
    assert traced
    for name, (mod, attr) in traced.items():
        assert callable(getattr(importlib.import_module(f"znbases.{mod}"), attr)), name
