"""The public API contract: exported names and the names the benchmark traces."""

import ast
import contextlib
import importlib
import importlib.util
import io
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import hogmt

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"

# public names whose only callers are tests, each kept for a stated job
TEST_ONLY = {
    "reconstruct": "the Mercer-reconstruction oracle of the decomposition tests",
    "spreading_function": "the direct second route for the eigen-domain statistics",
}


def _submodules():
    return [
        importlib.import_module(f"hogmt.{info.name}")
        for info in pkgutil.iter_modules(hogmt.__path__)
    ]


def _readme_example() -> str:
    text = README.read_text(encoding="utf-8")
    (block,) = [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]
    return block


def _loaded_names(source: str) -> set[str]:
    """Names a module reads; def and class lines, imports and __all__ strings are not reads."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_all_names_resolve():
    # the package and every module in it: a deleted name must leave __all__ too
    modules = [hogmt] + _submodules()
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


def test_exports_are_unique_and_come_from_their_module():
    # a star import that shadowed another module's name would break this
    exported = [name for name in hogmt.__all__ if name != "__version__"]
    assert len(exported) == len(set(exported))
    modules = _submodules()
    wrong = {}
    for name in exported:
        owners = [mod for mod in modules if name in getattr(mod, "__all__", ())]
        if len(owners) != 1 or getattr(hogmt, name) is not getattr(owners[0], name):
            wrong[name] = [mod.__name__ for mod in owners]
    assert not wrong


def test_every_export_has_a_caller_outside_the_tests():
    # the package reading it, the benchmark naming it, or the README example
    src = Path(hogmt.__file__).parent
    used = set().union(*(_loaded_names(f.read_text(encoding="utf-8")) for f in src.glob("*.py")))
    used |= _loaded_names(_readme_example()) | TEST_ONLY.keys()
    bench = "\n".join(f.read_text(encoding="utf-8") for f in (ROOT / "perfbench").glob("*.py"))
    unused = [
        name
        for name in hogmt.__all__
        if name not in used and not re.search(rf"\b{name}\b", bench)
    ]
    assert not unused


def test_readme_names_resolve():
    # every H.<name> in the README's prose and examples, so a deleted name leaves it too
    named = set(re.findall(r"\bH\.(\w+)", README.read_text(encoding="utf-8")))
    missing = sorted(name for name in named if not hasattr(hogmt, name))
    assert named and not missing


def test_readme_library_example_runs():
    # the README's python block is the documented API; it must run as written
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(_readme_example(), str(README), "exec"), {})
    residual = float(out.getvalue().splitlines()[0])
    assert residual < 1e-9


def test_no_post_init_checks_an_array_by_hand():
    # array fields declare ndim in their metadata and checked_fields reads it
    src = Path(hogmt.__file__).parent
    by_hand = [
        f"{path.name}:{node.lineno}"
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        and {"checked_array", "ensure_grid"} & _loaded_names(ast.unparse(node))
    ]
    assert not by_hand
