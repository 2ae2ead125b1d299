"""The public API contract: exported names and the names the benchmark traces."""

import contextlib
import importlib
import importlib.util
import io
import pkgutil
import subprocess
import sys
from pathlib import Path

import hogmt

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    # the package and every module in it: a deleted name must leave __all__ too
    modules = [hogmt] + [
        importlib.import_module(f"hogmt.{info.name}")
        for info in pkgutil.iter_modules(hogmt.__path__)
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert len(modules) > 1 and not missing


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


def test_readme_library_example_runs():
    # the README's python block is the documented API; it must run as written
    text = README.read_text(encoding="utf-8")
    (block,) = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(block, str(README), "exec"), {})
    residual = float(out.getvalue().splitlines()[0])
    assert residual < 1e-9
