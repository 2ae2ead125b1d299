"""The public API contract: exported names and the names the benchmark traces."""

import importlib
import importlib.util
from pathlib import Path

import hogmt

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_all_names_resolve():
    missing = [name for name in hogmt.__all__ if not hasattr(hogmt, name)]
    assert not missing


def test_traced_functions_exist():
    # the benchmark's --trace 1 phase looks every TRACED name up with getattr
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hogmt.{module}"), name, None))
    ]
    assert tracing.TRACED and not missing
