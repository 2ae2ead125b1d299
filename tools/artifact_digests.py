"""SHA-256 digests of every artifact the hogmt CLI writes, for checking that two
source trees produce the same bytes.

Usage: python tools/artifact_digests.py SRC

SRC is the root of a hogmt tree (the directory holding ``src/hogmt``), such
as a ``git worktree`` of another commit; the script imports ``hogmt`` from
there, so it also checks trees that lack it.  In a temporary directory it
runs generate, decompose, precode, simulate, stats and complexity in-process
through ``hogmt.cli.main`` on three configs, and prints one sorted line per
config, file and digest: each ``.ctf``, ``.csv`` and ``.npy`` file and
``manifest.yaml`` that a subcommand writes or rewrites, and the complexity
stdout.  One more line digests the ``BerPoint`` values of a ``run_ber`` call
shaped like perfbench's ``ber_sweep`` (the criteria 4-6 scenario, all five
precoders, four modulations, the nine points of 0-20 dB, a fixed seed), the
only call here in which two precoders share a link.  Another digests every
built-in modulation scheme: its name, bit counts and the bytes of its
``levels`` and ``points`` tables.  The first line states
``OPENBLAS_NUM_THREADS``, because the bytes depend on the BLAS thread count.
Compare two trees with

    diff <(python tools/artifact_digests.py A) <(python tools/artifact_digests.py B)

It needs only the standard library, NumPy, PyYAML and hogmt.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

STEPS = ("generate", "decompose", "precode", "simulate", "stats", "complexity")
SUFFIXES = (".ctf", ".csv", ".npy")

# perfbench's CLI_SCENARIO, the small config of acceptance criterion 10, and
# the defaults
CONFIGS = {
    "cli_scenario": {
        "scenario": {
            "users": 4, "tx_antennas": 4, "time_symbols": 128, "min_delay_taps": 1,
            "max_delay_taps": 4, "mode": "drift", "doppler_max": 0.05,
            "doppler_drift": 0.002,
        },
        "sim": {"seed": 1801, "precoder": "hogmt(0.99)"},
        "stats": {"ensemble": 3},
    },
    "criterion_10": {
        "scenario": {
            "users": 2, "tx_antennas": 2, "time_symbols": 12,
            "min_delay_taps": 2, "max_delay_taps": 2, "doppler_max": 0.1,
        },
        "sim": {"snr_db": [5.0, 10.0], "min_bits": 10000, "seed": 321,
                "modulation": "qpsk"},
        "stats": {"ensemble": 2},
    },
    "defaults": {},
}

# perfbench's ber_sweep call, all nine SNR points at once
BER_SWEEP = {
    "scenario": {
        "users": 4, "tx_antennas": 4, "time_symbols": 12, "min_delay_taps": 4,
        "max_delay_taps": 4, "mode": "drift", "doppler_max": 0.2, "doppler_drift": 0.01,
        "delay_decay": 0.5,
    },
    "precoders": ("hogmt(0.99)", "hogmt(1.0)", "zf", "zfdpc", "ideal"),
    "snr_db": tuple(2.5 * i for i in range(9)),
    "min_bits": 10_000,
    "seed": 777,
    "modulations": ("bpsk", "qpsk", "qam16", "qam64"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines(configs: dict, workdir: Path) -> list[str]:
    """``config step/file digest`` lines, sorted, for every config run in ``workdir``."""
    import yaml

    from hogmt.cli import main

    lines = []
    for label, config in configs.items():
        cfg_path, out = workdir / f"{label}.yaml", workdir / label
        cfg_path.write_text(yaml.safe_dump(config), encoding="utf-8")
        seen: dict[str, str] = {}
        for step in STEPS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([step, "--config", str(cfg_path), "--out", str(out), "--quiet"])
            if code != 0:
                raise SystemExit(f"{label}: {step} exited {code}")
            if step == "complexity":
                lines.append(f"{label} complexity/stdout {_sha256(stdout.getvalue().encode())}")
                continue
            for path in sorted(out.iterdir()):
                if path.suffix in SUFFIXES or path.name == "manifest.yaml":
                    digest = _sha256(path.read_bytes())
                    if seen.get(path.name) != digest:  # written or rewritten by this step
                        seen[path.name] = digest
                        lines.append(f"{label} {step}/{path.name} {digest}")
    return sorted(lines)


def ber_sweep_line() -> str:
    """``ber_sweep run_ber/points digest``: the repr of every BER point's values."""
    import dataclasses

    import hogmt

    kw = dict(BER_SWEEP, scenario=hogmt.ScenarioConfig(**BER_SWEEP["scenario"]))
    points = [dataclasses.astuple(p) for p in hogmt.run_ber(**kw).points]
    return f"ber_sweep run_ber/points {_sha256(repr(points).encode())}"


def schemes_line() -> str:
    """``schemes linksim/tables digest``: each ``SCHEMES`` entry's name, bit
    counts and table bytes, in name order."""
    from hogmt.linksim import SCHEMES

    digest = hashlib.sha256()
    for name, scheme in sorted(SCHEMES.items()):
        digest.update(repr((name, scheme.axis_bits, scheme.axes)).encode())
        digest.update(scheme.levels.tobytes() + scheme.points.tobytes())
    return f"schemes linksim/tables {digest.hexdigest()}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = Path(args[0]).resolve() / "src"
    if not (src / "hogmt").is_dir():
        print(f"error: no hogmt package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import hogmt

    print(f"importing hogmt from {Path(hogmt.__file__).parent}", file=sys.stderr)
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset)')}")
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(sorted(digest_lines(CONFIGS, Path(tmp)) + [ber_sweep_line(), schemes_line()])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
