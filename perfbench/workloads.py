"""The four benchmark workloads: inputs from a seed, one operation, its checks.

Each workload is a closed loop with one client: ``op(i)`` runs the i-th
operation and returns ``(output, parts)``, where ``parts`` is None for an
operation that runs in this process, or maps each component (a CLI
subcommand) to its wall time.  ``check`` returns one pass/fail entry per
checked item, ``oracle`` adds the checks that are too costly to make on every
operation, ``corruptions`` yields damaged copies of an output that the
checks must reject, and ``health`` returns readings that are recorded but
never gated.  Nothing here is timed except ``op``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hogmt as H
from tracing import CLI_SUBCOMMANDS as CLI_STEPS

HERE = Path(__file__).resolve().parent
WARMUP_OP = 1 << 20  # operation index of the untimed warm-up, never reached by the loop


def derive(seed: int, *key: int) -> int:
    """A 63-bit input seed for one purpose, fixed by the benchmark seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key))
    return int(np.random.default_rng(ss).integers(0, 2**63))


class Workload:
    name = ""
    traced = False  # set by the worker during the traced phase
    keeps_first = False  # True: operation 0's output stays valid until released

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir

    def warmup(self) -> None:
        self.op(WARMUP_OP)

    def op(self, i: int):
        raise NotImplementedError

    def work(self, out) -> float:
        return 1.0

    def check(self, out) -> list[bool]:
        raise NotImplementedError

    def oracle(self, out) -> list[bool]:
        return []

    def corruptions(self, out):
        return []

    def health(self, out) -> dict[str, float]:
        return {}

    def counts(self, out) -> dict[str, float]:
        return {}

    def release(self, out) -> None:
        """Drop what an operation left on disk once it has been checked."""


# ---------------------------------------------------------------- ber_sweep

BER_SCENARIO = H.ScenarioConfig(
    users=4, tx_antennas=4, time_symbols=12, min_delay_taps=4,
    max_delay_taps=4, mode="drift", doppler_max=0.2, doppler_drift=0.01,
    delay_decay=0.5,
)
BER_GRID = tuple(2.5 * i for i in range(9))  # 0 .. 20 dB
BER_PRECODERS = ("hogmt(0.99)", "hogmt(1.0)", "zf", "zfdpc", "ideal")
BER_MODULATIONS = ("bpsk", "qpsk", "qam16", "qam64")
BER_MIN_BITS = H.MIN_BITS_FLOOR
# a measured point of an exact link may sit this many Monte Carlo standard
# errors from the AWGN curve; the error is floored at one count per point
BER_Z = 5.0
BASELINE_FACTOR = 100.0  # criterion 5: baselines at least 100x worse


class BerSweep(Workload):
    """One operation is ``run_ber`` at one SNR point of the criteria 4-6 grid,
    every precoder and modulation; operations walk the grid in order."""

    name = "ber_sweep"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.specs = [H.parse_precoder(p) for p in BER_PRECODERS]

    def op(self, i):
        snr = BER_GRID[i % len(BER_GRID)]
        rep = H.run_ber(
            BER_SCENARIO, self.specs, [snr], BER_MIN_BITS,
            seed=derive(self.seed, 1, i), modulations=BER_MODULATIONS,
        )
        return rep, None

    def work(self, rep):
        return float(sum(p.bits for p in rep.points))

    def check(self, rep):
        return ber_point_checks(rep)

    def corruptions(self, rep):
        pts = list(rep.points)

        def replaced(pred, **changes):
            return H.BerReport(tuple(
                dataclasses.replace(p, **changes) if pred(p) else p for p in pts
            ))

        yield "nan point", replaced(lambda p: p is pts[0], ber=math.nan)
        yield "zero-bit point", replaced(lambda p: p is pts[0], bits=0)
        yield "ideal off the AWGN curve", replaced(
            lambda p: p.precoder == "ideal", ber=0.5
        )
        # at 15 dB QPSK, baselines no worse than a hogmt(0.99) that made errors
        at15 = [
            dataclasses.replace(p, snr_db=15.0, ber=1e-3) for p in pts
            if p.modulation == "qpsk"
            and (p.precoder in ("zf", "zfdpc") or p.fraction == 0.99)
        ]
        yield "baselines not separated", H.BerReport(tuple(at15))

    def health(self, rep):
        tx = [p.tx_energy for p in rep.points if p.bits > 0]
        return {"health.max_tx_energy": max(tx) if tx else math.nan}


def ber_point_checks(rep) -> list[bool]:
    """One entry per BER point: measured, finite, exact links on the AWGN curve,
    and at 15 dB QPSK the baselines 100x worse than hogmt(0.99)."""
    ok = []
    by_key = {(p.snr_db, p.precoder, p.fraction, p.modulation): p for p in rep.points}
    for p in rep.points:
        good = p.bits > 0 and math.isfinite(p.ber)
        exact = p.precoder == "ideal" or (p.precoder == "hogmt" and p.fraction == 1.0)
        if good and exact:
            k = H.get_scheme(p.modulation).bits_per_symbol
            theory = H.theoretical_awgn_ber(p.modulation, p.snr_db - 10 * math.log10(k))
            se = math.sqrt(max(theory, 1.0 / p.bits) * (1.0 - theory) / p.bits)
            good = abs(p.ber - theory) <= BER_Z * se
        if good and p.snr_db == 15.0 and p.modulation == "qpsk" and p.precoder in ("zf", "zfdpc"):
            hp = by_key.get((15.0, "hogmt", 0.99, "qpsk"))
            good = hp is not None and p.ber >= BASELINE_FACTOR * hp.ber
        ok.append(bool(good))
    return ok


# ----------------------------------------------------------- decompose_long

LONG_SCENARIO = H.ScenarioConfig(
    users=4, tx_antennas=4, time_symbols=256, min_delay_taps=1,
    max_delay_taps=8, mode="drift", doppler_max=0.03, doppler_drift=0.003,
    delay_decay=4.0,
)
LONG_GRIDS = 4  # data grids precoded and sent through each channel
DUALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-8
ORACLE_TOL = 1e-8


@dataclasses.dataclass
class Block:
    kernel: object
    decomp: object
    grids: list
    sent: list
    received: list
    duality: float = math.nan


class DecomposeLong(Workload):
    """One operation is one channel block: generate, to_kernel, hogmt_decompose,
    then hogmt_precode and apply_kernel on a fixed number of data grids."""

    name = "decompose_long"

    def op(self, i):
        cfg = LONG_SCENARIO
        rng = np.random.default_rng(derive(self.seed, 2, i))
        grids = [
            (rng.standard_normal((cfg.users, cfg.time_symbols))
             + 1j * rng.standard_normal((cfg.users, cfg.time_symbols))) / math.sqrt(2)
            for _ in range(LONG_GRIDS)
        ]
        h = H.generate_channel(cfg, derive(self.seed, 3, i))
        kernel = H.to_kernel(h)
        decomp = H.hogmt_decompose(kernel)
        sent, received = [], []
        for g in grids:
            x, _ = H.hogmt_precode(decomp, H.SpaceTimeSignal(grid=g))
            sent.append(x.grid)
            received.append(H.apply_kernel(kernel, x).grid)
        return Block(kernel, decomp, grids, sent, received), None

    def check(self, b):
        b.duality = H.duality_residual(b.kernel, b.decomp)
        return [b.duality <= DUALITY_TOL and max(_residuals(b)) <= RESIDUAL_TOL]

    def oracle(self, b):
        """Direct solve of the flattened kernel against the precoded grids."""
        flat = H.flatten_kernel(b.kernel)
        ok = True
        for g, x in zip(b.grids, b.sent):
            direct = np.linalg.solve(flat, g.ravel())
            gap = np.linalg.norm(x.ravel() - direct) / np.linalg.norm(direct)
            ok = ok and gap <= ORACLE_TOL
        return [bool(ok)]

    def corruptions(self, b):
        d = b.decomp
        bent = H.EigenDecomposition(
            sigmas=d.sigmas * 1.001, psis=d.psis, phis=d.phis,
            source_dims=d.source_dims,
        )
        yield "sigmas off by 0.1%", dataclasses.replace(b, decomp=bent)
        off = [x + 1e-6 * np.abs(x).max() for x in b.sent]
        yield "precoded grid perturbed", dataclasses.replace(
            b, sent=off, received=[H.apply_kernel(b.kernel, x) for x in off]
        )

    def health(self, b):
        s = b.decomp.sigmas
        return {
            "health.max_cond": float(s[0] / s[-1]) if s[-1] > 0 else math.inf,
            "health.max_residual": max(_residuals(b)),
            "health.max_duality_residual": b.duality,
        }


def _residuals(b: Block) -> list[float]:
    return [
        float(np.linalg.norm(np.asarray(r) - g) / np.linalg.norm(g))
        for g, r in zip(b.grids, b.received)
    ]


# ----------------------------------------------------------- stats_ensemble

MEMBER_SCENARIO = H.ScenarioConfig(
    users=1, tx_antennas=1, time_symbols=64, min_delay_taps=4,
    max_delay_taps=4, mode="wssus", doppler_max=0.1,
)
MEMBERS = 16  # ensemble members per operation
SWITCH_SCENARIO = H.ScenarioConfig(
    users=4, tx_antennas=4, time_symbols=2048, min_delay_taps=2,
    max_delay_taps=2, mode="block", block_len=256, doppler_max=0.0,
)
CMD_WINDOW = 8
CMD_D0 = 0.2
MARGINAL_TOL = 1e-8
INTERVAL_TOL = 0.10  # block-switch interval within 10% of block_len
CLEAR_MARGIN = 1.1


@dataclasses.dataclass
class StatsOut:
    report: object
    switching: object  # the block-switching channel cmd ran on
    intervals: np.ndarray


class StatsEnsemble(Workload):
    """One operation is an ensemble of stationary 1x1x64x4 members through
    tf_transfer, atomic_kernel and decompose_atomic, reduced by
    stats_from_decomp, plus cmd and stationarity_interval on one long
    block-switching channel."""

    name = "stats_ensemble"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.proto = H.GaussianPrototype(spread_t=4.0, spread_f=1.0)

    def op(self, i):
        decomps = []
        for m in range(MEMBERS):
            h = H.generate_channel(MEMBER_SCENARIO, derive(self.seed, 4, i, m))
            ak = H.atomic_kernel(H.tf_transfer(h, 0, 0), self.proto)
            decomps.append(H.decompose_atomic(ak))
        report = H.stats_from_decomp(None, ensemble=decomps)
        h = H.generate_channel(SWITCH_SCENARIO, derive(self.seed, 5, i))
        series = H.cmd(h, side="tx", window=CMD_WINDOW)
        intervals = H.stationarity_interval(series, CMD_D0).intervals
        return StatsOut(report, h, np.asarray(intervals)), None

    def work(self, out):
        return float(out.report.ensemble_size)

    def check(self, out):
        rep = out.report
        ok = rep.ensemble_size == MEMBERS and float(rep.lsf.min()) >= 0.0
        ok = ok and _marginal_error(rep) <= MARGINAL_TOL
        block = SWITCH_SCENARIO.block_len
        ok = ok and all(
            abs(int(out.intervals[s]) - block) <= INTERVAL_TOL * block
            for s in _clear_block_starts(out.switching)
        )
        return [bool(ok)]

    def corruptions(self, out):
        rep = out.report
        lsf = rep.lsf.copy()
        lsf.flat[0] = -abs(lsf.flat[0]) - 1e-3
        yield "negative scattering density", dataclasses.replace(
            out, report=dataclasses.replace(rep, lsf=lsf)
        )
        yield "path gain off its marginal", dataclasses.replace(
            out, report=dataclasses.replace(rep, path_gain=rep.path_gain * 1.01)
        )
        merged = out.intervals.copy()
        merged[_clear_block_starts(out.switching)[0]] = 2 * SWITCH_SCENARIO.block_len
        yield "switch interval missed", dataclasses.replace(out, intervals=merged)


def _clear_block_starts(h) -> list[int]:
    """Block starts whose switches the channel makes unmistakable.

    Independent of ``cmd``: with zero Doppler every block is constant, so
    its transmit correlation matrix is exact and every window inside it
    sees that matrix.  When the distance to a neighbouring block is at
    least the threshold, the run must stop within one window of the
    switch; two draws can also land closer than that by chance, and then
    the interval rightly spans both blocks.  So a start is checked only
    when the distance to each neighbour clears the threshold by 10%.
    """
    block = SWITCH_SCENARIO.block_len
    n_blocks = h.dims[2] // block
    mats = [h.values[:, :, b * block, :].sum(axis=2) for b in range(n_blocks)]
    corr = [m.T @ m.conj() for m in mats]

    def dist(a, b):
        inner = np.real(np.vdot(b, a))
        return 1.0 - inner / (np.linalg.norm(a) * np.linalg.norm(b))

    clear = []
    for b in range(n_blocks):
        before = b == 0 or dist(corr[b - 1], corr[b]) >= CLEAR_MARGIN * CMD_D0
        after = b == n_blocks - 1 or dist(corr[b], corr[b + 1]) >= CLEAR_MARGIN * CMD_D0
        if before and after:
            clear.append(b * block)
    return clear


def _marginal_error(rep) -> float:
    m1 = np.abs(rep.lsf.sum(axis=(2, 3)) - rep.path_gain).max() / rep.path_gain.max()
    m2 = np.abs(rep.lsf.sum(axis=(0, 1)) - rep.scattering).max() / rep.scattering.max()
    m3 = abs(rep.lsf.sum() - rep.total_gain) / rep.total_gain
    return float(max(m1, m2, m3))


# ------------------------------------------------------------- cli_pipeline

CLI_SCENARIO = {
    "users": 4, "tx_antennas": 4, "time_symbols": 128, "min_delay_taps": 1,
    "max_delay_taps": 4, "mode": "drift", "doppler_max": 0.05,
    "doppler_drift": 0.002,
}
COMPARED_SUFFIXES = (".ctf", ".csv")


@dataclasses.dataclass
class PassOut:
    out_dir: Path
    codes: dict
    manifests: dict
    max_rss_kb: int
    spans: list
    reference: dict  # file name -> digest of the run's reference pass


class CliPipeline(Workload):
    """One operation is one pass of generate, decompose, precode, simulate and
    stats, each its own ``python -m hogmt.cli`` process sharing an output
    directory, as a user runs them."""

    name = "cli_pipeline"
    keeps_first = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        import yaml

        self.config = workdir / "run.yaml"
        sim = {"min_bits": H.MIN_BITS_FLOOR, "seed": derive(seed, 6)}
        self.config.write_text(
            yaml.safe_dump({"scenario": CLI_SCENARIO, "sim": sim}), encoding="utf-8"
        )
        self.reference: dict[str, str] = {}
        self.env = dict(os.environ)
        src = str(Path.cwd() / "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else ""
        )

    def warmup(self):
        """One in-process pass; its artifacts are the run's reference bytes."""
        from hogmt import cli as hcli

        out_dir = self.workdir / "reference"
        for step in CLI_STEPS:
            code = hcli.main([step, "--config", str(self.config), "--out",
                              str(out_dir), "--quiet"])
            if code != 0:
                raise RuntimeError(f"warm-up {step} exited {code}")
        self.reference = _digests(out_dir)

    def op(self, i):
        out_dir = self.workdir / f"pass{i}"
        parts, codes, manifests, spans = {}, {}, {}, []
        max_rss = 0
        for step in CLI_STEPS:
            args = [step, "--config", str(self.config), "--out", str(out_dir), "--quiet"]
            if self.traced:
                span_file = out_dir.parent / f"spans-{i}-{step}.json"
                spans.append(span_file)
                argv = [sys.executable, str(HERE / "cli_shim.py"), str(span_file), *args]
            else:
                argv = [sys.executable, "-m", "hogmt.cli", *args]
            t0 = time.perf_counter()
            code, rss = run_child(argv, self.env)
            parts[step] = time.perf_counter() - t0
            codes[step] = code
            max_rss = max(max_rss, rss)
            manifest = out_dir / "manifest.yaml"
            manifests[step] = manifest.read_bytes() if manifest.exists() else b""
        return PassOut(out_dir, codes, manifests, max_rss, spans, self.reference), parts

    def check(self, p):
        import yaml

        digests = _digests(p.out_dir)
        ok = []
        for step in CLI_STEPS:
            good = p.codes[step] == 0
            try:
                manifest = yaml.safe_load(p.manifests[step]) or {}
            except yaml.YAMLError:
                manifest = {}
            outputs = manifest.get("outputs") if manifest.get("subcommand") == step else None
            good = good and outputs is not None
            for name in outputs or ():
                good = good and (p.out_dir / name).is_file()
                if name.endswith(COMPARED_SUFFIXES):
                    good = good and digests.get(name) == p.reference.get(name)
            if step == "simulate" and good:
                good = not _ber_csv_has_nan(p.out_dir / "ber.csv")
            ok.append(bool(good))
        return ok

    def corruptions(self, p):
        bad = self.workdir / "corrupt"
        for label, damage in (
            ("nonzero exit", lambda d: None),
            ("missing output", lambda d: (d / "eigen.csv").unlink()),
            ("nan row in ber.csv", _nan_ber_row),
            ("ctf byte flipped", _flip_ctf_byte),
        ):
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(p.out_dir, bad)
            damage(bad)
            codes = dict(p.codes)
            if label == "nonzero exit":
                codes["precode"] = 1
            # the NaN row must be caught by the NaN check, not by the digests
            reference = _digests(bad) if label == "nan row in ber.csv" else p.reference
            yield label, dataclasses.replace(p, out_dir=bad, codes=codes, reference=reference)

    def health(self, p):
        out = {}
        ber = _read_csv(p.out_dir / "ber.csv")
        if ber:
            out["health.max_tx_energy"] = max(float(r["tx_energy"]) for r in ber)
        footer = (p.out_dir / "energy.csv").read_text().strip().splitlines()[-1]
        fields = dict(kv.split("=") for kv in footer.lstrip("# ").split())
        out["health.dropped_energy"] = float(fields["dropped_energy"])
        sig = [float(r["sigma"]) for r in _read_csv(p.out_dir / "eigen.csv")]
        if sig:
            out["health.max_cond"] = sig[0] / sig[-1] if sig[-1] > 0 else math.inf
        return out

    def counts(self, p):
        written = sum(f.stat().st_size for f in p.out_dir.iterdir() if f.is_file())
        return {"cli.bytes_written": float(written)}

    def release(self, p):
        shutil.rmtree(p.out_dir, ignore_errors=True)


def run_child(argv, env) -> tuple[int, int]:
    """Run a process to completion; its exit code and peak RSS in KB."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, int(usage.ru_maxrss)


def _digests(out_dir: Path) -> dict[str, str]:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out_dir.iterdir())
        if f.suffix in COMPARED_SUFFIXES
    }


def _read_csv(path: Path) -> list[dict]:
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def _ber_csv_has_nan(path: Path) -> bool:
    rows = _read_csv(path)
    return not rows or any(
        not math.isfinite(float(v)) for r in rows
        for k, v in r.items() if k not in ("precoder", "modulation")
    )


def _nan_ber_row(d: Path) -> None:
    path = d / "ber.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[6] = "nan"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _flip_ctf_byte(d: Path) -> None:
    path = d / "channel.ctf"
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))


WORKLOADS = {w.name: w for w in (BerSweep, DecomposeLong, StatsEnsemble, CliPipeline)}
