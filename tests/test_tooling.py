"""The repository's tooling: the pytest configuration (a failing property test
ends as a failure) and the artifact-digest script."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
DIGESTS = ROOT / "tools" / "artifact_digests.py"

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, deadline=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_session(tmp_path):
    # reporting a falsified example imports modules that warn on import;
    # under filterwarnings = error that must not become an internal error
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout


def _digests_module():
    spec = importlib.util.spec_from_file_location("artifact_digests", DIGESTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_digests_repeat_and_name_every_artifact(tmp_path):
    tool = _digests_module()
    config = {"small": tool.CONFIGS["criterion_10"]}
    lines = tool.digest_lines(config, tmp_path)
    (tmp_path / "again").mkdir()
    assert lines == tool.digest_lines(config, tmp_path / "again")
    files = {line.split()[1] for line in lines}
    for step in ("generate", "decompose", "precode", "simulate", "stats"):
        assert f"{step}/manifest.yaml" in files
    assert {"generate/channel.ctf", "decompose/eigen.csv", "precode/precoded.npy",
            "simulate/ber.csv", "stats/cmd_tx.csv", "complexity/stdout"} <= files
    assert not any(name.endswith("effective_config.yaml") for name in files)


def test_ber_sweep_digest_repeats():
    tool = _digests_module()
    line = tool.ber_sweep_line()
    assert line == tool.ber_sweep_line()
    assert line.startswith("ber_sweep run_ber/points ") and len(line.split()[-1]) == 64


def test_schemes_digest_repeats_and_covers_every_entry(monkeypatch):
    tool = _digests_module()
    line = tool.schemes_line()
    assert line == tool.schemes_line()
    assert line.startswith("schemes linksim/tables ") and len(line.split()[-1]) == 64
    import hogmt.linksim

    # one more scheme beside the built-in ones moves the digest
    extra = hogmt.linksim.ModulationScheme("qam256", 4, 2)
    monkeypatch.setitem(hogmt.linksim.SCHEMES, "qam256", extra)
    assert tool.schemes_line() != line


def test_artifact_digests_needs_a_hogmt_tree(tmp_path, capsys):
    tool = _digests_module()
    assert tool.main([]) == 2
    assert "Usage: python tools/artifact_digests.py SRC" in capsys.readouterr().err
    assert tool.main([str(tmp_path)]) == 2
    assert "no hogmt package" in capsys.readouterr().err
