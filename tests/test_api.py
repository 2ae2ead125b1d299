"""The public API contract: exported names, and the names and calls of the benchmark."""

import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import inspect
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import hogmt
from hogmt import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"
README = ROOT / "README.md"
PYPROJECT = ROOT / "pyproject.toml"
DIGESTS = ROOT / "tools" / "artifact_digests.py"

# public names whose only callers are tests, each kept for a stated job
TEST_ONLY = {
    "reconstruct": "the Mercer-reconstruction oracle of the decomposition tests",
    "spreading_function": "the direct second route for the eigen-domain statistics",
}

# public classes whose fields need no attribute read, each with the reason
WRITTEN_WHOLE = {
    "BerPoint": "simulate writes every field as a ber.csv column through astuple",
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


def _outside_sources() -> list[str]:
    """Every reader outside the tests: the package, the benchmark and the README example."""
    src = Path(hogmt.__file__).parent
    files = [*src.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return [f.read_text(encoding="utf-8") for f in files] + [_readme_example()]


def _public_api():
    """(name, object) of every export of the package and of its command line."""
    return [(name, getattr(mod, name)) for mod in (hogmt, cli) for name in mod.__all__]


def _public_members(cls) -> dict:
    """Name -> object of the public methods, properties and dataclass fields ``cls`` declares."""
    members = {f.name: f for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else {}
    members.update(
        (name, obj) for name, obj in vars(cls).items()
        if inspect.isfunction(obj) or isinstance(obj, property)
    )
    return {name: obj for name, obj in members.items() if not name.startswith("_")}


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


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``workloads`` and ``tracing`` modules, imported as it imports them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("workloads"), importlib.import_module("tracing")
    for name in ("workloads", "tracing"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["ber_sweep", "decompose_long", "stats_ensemble"])
def test_perfbench_operation_passes_its_checks(perfbench, tmp_path, name):
    # runs the call forms the benchmark pins, such as
    # stationarity_interval(cmd(...)).intervals, traced as its --trace 1 phase is
    workloads, tracing = perfbench
    wl = workloads.WORKLOADS[name](1, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out, _ = wl.op(0)
    finally:
        tracer.uninstall()
    checks = wl.check(out)
    assert checks and all(checks), checks


def test_perfbench_cli_pipeline_warms_up(perfbench, tmp_path):
    # one in-process pass of every subcommand on the benchmark's config
    workloads, _ = perfbench
    workloads.WORKLOADS["cli_pipeline"](1, tmp_path).warmup()


# run with the criterion-10 config's path and an output directory as arguments
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # from here on, every SciPy import raises ImportError
from hogmt import SCHEMES, theoretical_awgn_ber
from hogmt.cli import _COMMANDS, main

config, out = sys.argv[1:]
for sub in _COMMANDS:
    assert main([sub, "--config", config, "--out", out, "--quiet"]) == 0, sub
for name in SCHEMES:
    assert 0.0 < theoretical_awgn_ber(name, 10.0) < 0.5, name
print(len(_COMMANDS), len(SCHEMES))
"""


def test_every_subcommand_and_curve_runs_without_scipy(tmp_path):
    # the runtime needs NumPy and PyYAML alone; SciPy is a test oracle only
    spec = importlib.util.spec_from_file_location("artifact_digests", DIGESTS)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(digests.CONFIGS["criterion_10"]), encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(hogmt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    # the last line, after complexity's table
    assert out.stdout.splitlines()[-1] == f"{len(cli._COMMANDS)} {len(hogmt.SCHEMES)}"


def test_declared_dependencies_are_the_imported_ones():
    # every third-party top-level module imported anywhere in the package,
    # inside functions too, against the runtime dependencies of pyproject.toml
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", dep)[0].lower() for dep in project["dependencies"]}
    imported = set()
    for path in Path(hogmt.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"hogmt"}
    assert {{"yaml": "pyyaml"}.get(m, m) for m in third_party} == declared


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


def _unread_members(api, sources) -> list[str]:
    """Class.member of each public member of a class in ``api`` no source reads as an attribute."""
    # matched by attribute name: a name another class also reads passes
    read = {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{name}.{member}"
        for name, obj in api
        if isinstance(obj, type)
        for member, declared in _public_members(obj).items()
        if member not in read
        and not (name in WRITTEN_WHOLE and isinstance(declared, dataclasses.Field))
    ]


def test_every_public_member_is_read_outside_the_tests():
    assert not _unread_members(_public_api(), _outside_sources())


def _passes(call: ast.Call, param: inspect.Parameter, index: int) -> bool:
    """True when ``call`` passes ``param``, the index-th parameter after any self."""
    if any(kw.arg in (param.name, None) for kw in call.keywords):  # None: a ** splat
        return True
    if param.kind is not inspect.Parameter.POSITIONAL_OR_KEYWORD:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def _unpassed_options(api, sources) -> list[str]:
    """fn(param) of each defaulted parameter of a function or public method in ``api``
    that no call in ``sources`` passes."""
    functions = [(name, obj) for name, obj in api if inspect.isfunction(obj)]
    functions += [
        (f"{name}.{member}", method)
        for name, cls in api
        if isinstance(cls, type)
        for member, method in _public_members(cls).items()
        if inspect.isfunction(method)
    ]
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(callee, []).append(node)
    unpassed = []
    for qualname, fn in functions:
        params = list(inspect.signature(fn).parameters.values())
        if "." in qualname:
            params = params[1:]  # self
        unpassed += [
            f"{qualname}({p.name})"
            for i, p in enumerate(params)
            if p.default is not p.empty
            and not any(_passes(c, p, i) for c in calls.get(fn.__name__, ()))
        ]
    return unpassed


def test_every_option_is_passed_outside_the_tests():
    # a defaulted parameter of an exported function or a public method
    assert not _unpassed_options(_public_api(), _outside_sources())


@dataclasses.dataclass(frozen=True)
class _Probe:
    """A public type for the guards to look at: two fields, a property and a method."""

    shown: int
    hidden: int
    _private: int = 0

    @property
    def total(self):
        return self.shown + self.hidden

    def scaled(self, factor, offset=0.0, *, clip=None):
        return self.total * factor + offset


def _probe(a, b=1, c=2, *, d=3):
    return a + b + c + d


@pytest.mark.parametrize(
    "name,source,unread",
    [
        ("Probe", "p.shown; p.total; p.scaled(2)", ["Probe.hidden"]),
        ("Probe", "p.hidden = 1; print(p.shown, p.total, p.scaled)", ["Probe.hidden"]),
        ("BerPoint", "p.scaled(2)", ["BerPoint.total"]),  # written whole: fields exempt
    ],
    ids=["unread-field", "stored-is-not-read", "written-whole"],
)
def test_member_guard_names_each_unread_member(name, source, unread):
    assert _unread_members([(name, _Probe)], [source]) == unread


@pytest.mark.parametrize(
    "api,source,unpassed",
    [
        ([("_probe", _probe)], "_probe(0)", ["_probe(b)", "_probe(c)", "_probe(d)"]),
        ([("_probe", _probe)], "_probe(0, 5, 6)", ["_probe(d)"]),  # d is keyword-only
        ([("_probe", _probe)], "m._probe(0, c=1, d=2)", ["_probe(b)"]),
        ([("_probe", _probe)], "_probe(*args, **kwargs)", []),
        ([("Probe", _Probe)], "p.scaled(2, 0.5)", ["Probe.scaled(clip)"]),  # after self
    ],
    ids=["none", "positional", "keyword", "splats", "method"],
)
def test_option_guard_names_each_unpassed_option(api, source, unpassed):
    assert _unpassed_options(api, [source]) == unpassed


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
