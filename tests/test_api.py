"""The public API contract: exported names and the names the benchmark traces."""

import importlib
import importlib.util
import subprocess
import sys
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


def test_import_does_not_load_scipy():
    # only theoretical_awgn_ber needs SciPy; every CLI process pays for an import
    code = (
        "import sys, hogmt, hogmt.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
