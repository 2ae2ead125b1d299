"""Acceptance suite: ten criteria, each one test with its stated tolerance.

Every test finishes by printing a single PASS line with the measured
numbers; a failed assertion documents the measured violation instead.
Scenario parameters are frozen so each criterion is a deterministic,
reproducible measurement.
"""

import math
import time

import numpy as np
import pytest
import yaml

import hogmt as H
from hogmt.cli import complexity_estimate, main as cli_main


def _passline(n, text):
    print(f"criterion {n}: PASS - {text}")


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_decomposition_exactness():
    rng = np.random.default_rng(1001)
    worst_recon = worst_gram = worst_dual = 0.0
    t0 = time.perf_counter()
    for _ in range(50):
        l_u = int(rng.integers(1, 5))
        l_up = int(rng.integers(1, 5))
        l_t = int(rng.integers(1, 65))
        dims = (l_u, l_t, l_up, l_t)
        kern = H.Kernel4D(rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
        dec = H.hogmt_decompose(kern)

        rec = H.reconstruct(dec)
        worst_recon = max(
            worst_recon,
            np.linalg.norm(rec.values - kern.values) / kern.frob_norm,
        )
        n = dec.n_modes
        psi = dec.psis.reshape(n, -1)
        phi = dec.phis.reshape(n, -1)
        worst_gram = max(
            worst_gram,
            np.abs(psi @ psi.conj().T - np.eye(n)).max(),
            np.abs(phi @ phi.conj().T - np.eye(n)).max(),
        )
        worst_dual = max(worst_dual, H.duality_residual(kern, dec))
    elapsed = time.perf_counter() - t0

    assert worst_recon <= 1e-10, f"reconstruction error {worst_recon}"
    assert worst_gram <= 1e-10, f"orthonormality deviation {worst_gram}"
    assert worst_dual <= 1e-10, f"duality residual {worst_dual}"
    assert elapsed <= 5.0, f"50 kernels took {elapsed:.2f} s"
    _passline(
        1,
        f"50 kernels: recon {worst_recon:.2e}, gram {worst_gram:.2e}, "
        f"duality {worst_dual:.2e}, {elapsed:.2f} s",
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_zero_interference_precoding():
    cfg = H.ScenarioConfig(
        users=4, tx_antennas=4, time_symbols=256, min_delay_taps=1,
        max_delay_taps=8, mode="drift", doppler_max=0.03, doppler_drift=0.003,
        delay_decay=4.0,
    )
    rng = np.random.default_rng(4242)
    worst_res = worst_x = 0.0
    for seed in range(9000, 9005):
        kern = H.to_kernel(H.generate_channel(cfg, seed))
        dec = H.hogmt_decompose(kern)
        grid = (
            rng.standard_normal((4, 256)) + 1j * rng.standard_normal((4, 256))
        ) / math.sqrt(2)
        s = H.SpaceTimeSignal(grid=grid)
        x, _ = H.hogmt_precode(dec, s)
        r = H.apply_kernel(kern, x)
        worst_res = max(
            worst_res, np.linalg.norm(r.grid - grid) / np.linalg.norm(grid)
        )
        x_ls, *_ = np.linalg.lstsq(H.flatten_kernel(kern), grid.ravel(), rcond=None)
        worst_x = max(
            worst_x,
            np.linalg.norm(x.grid.ravel() - x_ls) / np.linalg.norm(x_ls),
        )
    assert worst_res <= 1e-8, f"noise-free residual {worst_res}"
    assert worst_x <= 1e-8, f"least-squares oracle disagreement {worst_x}"
    _passline(2, f"5 channels: residual {worst_res:.2e}, lstsq gap {worst_x:.2e}")


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_energy_identities():
    rng = np.random.default_rng(33)
    cases = []
    dims = (3, 8, 3, 8)
    cases.append(H.Kernel4D(rng.standard_normal(dims) + 1j * rng.standard_normal(dims)))
    cfg = H.ScenarioConfig(
        users=2, tx_antennas=2, time_symbols=24, min_delay_taps=2,
        max_delay_taps=3, mode="drift", doppler_max=0.05, doppler_drift=0.005,
        delay_decay=2.0,
    )
    cases.append(H.to_kernel(H.generate_channel(cfg, 77)))

    worst_mode = worst_sum = 0.0
    for kern in cases:
        dec = H.hogmt_decompose(kern)
        s = H.SpaceTimeSignal(
            grid=rng.standard_normal((kern.dims[0], kern.dims[1]))
            + 1j * rng.standard_normal((kern.dims[0], kern.dims[1]))
        )
        _, coeffs = H.hogmt_precode(dec, s)
        rep = H.energy_report(dec, coeffs)
        scale = max(rep.cancelled_energy.max(), 1.0)
        worst_mode = max(
            worst_mode,
            np.abs(rep.cost_energy * rep.gains - rep.cancelled_energy).max() / scale,
        )
        worst_sum = max(
            worst_sum,
            abs(float(np.sum(dec.sigmas**2)) - kern.frob_norm**2) / kern.frob_norm**2,
        )
    assert worst_mode <= 1e-12, f"per-mode energy identity off by {worst_mode}"
    assert worst_sum <= 1e-10, f"total gain vs kernel energy off by {worst_sum}"
    _passline(3, f"per-mode {worst_mode:.2e}, total-gain {worst_sum:.2e}")


# ------------------------------------------------------- criteria 4, 5 and 6

BER_SCENARIO = H.ScenarioConfig(
    users=4, tx_antennas=4, time_symbols=12, min_delay_taps=4,
    max_delay_taps=4, mode="drift", doppler_max=0.2, doppler_drift=0.01,
    delay_decay=0.5,
)
BER_GRID = tuple(2.5 * i for i in range(9))  # 0 .. 20 dB
BER_SEED = 777


def test_criterion_04_near_ideal_ber():
    t0 = time.perf_counter()
    rep = H.run_ber(
        BER_SCENARIO,
        precoders=(
            H.parse_precoder("hogmt(0.99)"),
            H.parse_precoder("hogmt(1.0)"),
            H.parse_precoder("ideal"),
        ),
        snr_db=BER_GRID,
        min_bits=4_000_000,
        seed=BER_SEED,
        modulations=("qam16",),
    )
    elapsed = time.perf_counter() - t0

    h99 = {p.snr_db: p for p in rep.points if p.precoder == "hogmt" and p.fraction == 0.99}
    h100 = {p.snr_db: p for p in rep.points if p.precoder == "hogmt" and p.fraction == 1.0}
    ideal = {p.snr_db: p for p in rep.points if p.precoder == "ideal"}
    worst_factor_lo, worst_factor_hi, worst_z = 1.0, 1.0, 0.0
    for snr in BER_GRID:
        pa, pb, pi_ = h99[snr], h100[snr], ideal[snr]
        assert pa.bits >= 1_000_000
        theory = H.theoretical_awgn_ber("qam16", snr - 10 * math.log10(4))
        factor = pa.ber / theory
        assert 0.5 <= factor <= 2.0, (
            f"hogmt(0.99) at {snr} dB: BER {pa.ber:.3e} vs ideal curve "
            f"{theory:.3e}, factor {factor:.2f}"
        )
        worst_factor_lo = min(worst_factor_lo, factor)
        worst_factor_hi = max(worst_factor_hi, factor)
        def mc_se(p):
            return math.sqrt(p.ber * (1.0 - p.ber) / p.bits)

        se = math.sqrt(mc_se(pb) ** 2 + mc_se(pi_) ** 2)
        diff = abs(pb.ber - pi_.ber)
        assert diff <= 3.0 * max(se, 1e-300), (
            f"hogmt(1.0) at {snr} dB: {pb.ber:.3e} vs measured ideal "
            f"{pi_.ber:.3e}, {diff / max(se, 1e-300):.1f} MC SE apart"
        )
        worst_z = max(worst_z, diff / max(se, 1e-300))
    assert elapsed <= 600.0, f"run took {elapsed:.0f} s"
    _passline(
        4,
        f"factors in [{worst_factor_lo:.3f}, {worst_factor_hi:.3f}], "
        f"full-retention within {worst_z:.2f} MC SE, {elapsed:.0f} s",
    )


def test_criterion_05_baseline_separation():
    rep = H.run_ber(
        BER_SCENARIO,
        precoders=(
            H.parse_precoder("hogmt(0.99)"),
            H.parse_precoder("zf"),
            H.parse_precoder("zfdpc"),
        ),
        snr_db=BER_GRID,
        min_bits=1_000_000,
        seed=BER_SEED,
        modulations=("qpsk",),
    )
    at15 = [p for p in rep.points if p.snr_db == 15.0]
    (hp,) = [p for p in at15 if p.precoder == "hogmt"]
    (zf,) = [p for p in at15 if p.precoder == "zf"]
    (dpc,) = [p for p in at15 if p.precoder == "zfdpc"]
    assert zf.ber > 0 and dpc.ber > 0, "baselines produced no errors at 15 dB"
    assert zf.ber >= 100.0 * hp.ber, (
        f"ZF {zf.ber:.3e} not 100x above hogmt(0.99) {hp.ber:.3e}"
    )
    assert dpc.ber >= 100.0 * hp.ber, (
        f"ZF-DPC {dpc.ber:.3e} not 100x above hogmt(0.99) {hp.ber:.3e}"
    )
    _passline(
        5,
        f"15 dB QPSK: hogmt(0.99) {hp.ber:.2e} ({hp.errors} errors), "
        f"zf {zf.ber:.2e}, zfdpc {dpc.ber:.2e}",
    )


def test_criterion_06_modulation_ordering():
    mods = ("bpsk", "qpsk", "qam16", "qam64")
    grid = (0.0, 5.0, 10.0, 15.0, 20.0)
    rep = H.run_ber(
        BER_SCENARIO,
        precoders=(H.parse_precoder("hogmt(0.99)"),),
        snr_db=grid,
        min_bits=1_000_000,
        seed=BER_SEED,
        modulations=mods,
    )
    for snr in grid:
        bers = []
        for m in mods:
            (p,) = [q for q in rep.points if q.modulation == m and q.snr_db == snr]
            bers.append(p.ber)
        for lo, hi, mlo, mhi in zip(bers, bers[1:], mods, mods[1:]):
            assert lo <= hi, (
                f"at {snr} dB: BER({mlo}) = {lo:.3e} > BER({mhi}) = {hi:.3e}"
            )
    _passline(6, f"BPSK <= QPSK <= 16QAM <= 64QAM at all of {grid} dB")


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_stationarity_metric():
    switch_cfg = H.ScenarioConfig(
        users=4, tx_antennas=4, time_symbols=256, min_delay_taps=2,
        max_delay_taps=2, mode="block", block_len=100, doppler_max=0.0,
    )
    h = H.generate_channel(switch_cfg, 3)
    distances = H.cmd(h, side="tx", window=8)
    rep = H.stationarity_interval(distances, d0=0.2)
    interval = int(rep.intervals[0])
    assert 90 <= interval <= 110, (
        f"interval at the first window start is {interval}, want 100 +/- 10"
    )

    const_cfg = H.ScenarioConfig(
        users=4, tx_antennas=4, time_symbols=128, min_delay_taps=2,
        max_delay_taps=2, mode="wssus", doppler_max=0.0,
    )
    h2 = H.generate_channel(const_cfg, 4)
    worst = 0.0
    for side in ("tx", "rx"):
        worst = max(worst, float(H.cmd(h2, side=side, window=8).max()))
    assert worst <= 1e-12, f"time-invariant channel has distance {worst}"
    _passline(7, f"switch interval {interval} symbols, invariant-channel d {worst:.1e}")


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_stationary_ensemble_flatness():
    cfg = H.ScenarioConfig(
        users=1, tx_antennas=1, time_symbols=64, min_delay_taps=4,
        max_delay_taps=4, mode="wssus", doppler_max=0.1,
    )
    proto = H.GaussianPrototype(spread_t=4.0, spread_f=1.0)
    members = []
    for seed in range(100):
        h = H.generate_channel(cfg, seed)
        ak = H.atomic_kernel(H.tf_transfer(h, 0, 0), proto)
        members.append(H.decompose_atomic(ak))
    rep = H.stats_from_decomp(None, ensemble=members)
    assert rep.ensemble_size == 100

    cov = float(np.std(rep.path_gain) / np.mean(rep.path_gain))
    assert cov < 0.05, f"TF path-gain variation {cov:.4f} not below 5%"

    m1 = np.abs(rep.lsf.sum(axis=(2, 3)) - rep.path_gain).max() / rep.path_gain.max()
    m2 = np.abs(rep.lsf.sum(axis=(0, 1)) - rep.scattering).max() / rep.scattering.max()
    m3 = abs(rep.lsf.sum() - rep.total_gain) / rep.total_gain
    worst = max(m1, m2, m3)
    assert worst <= 1e-8, f"marginal identity off by {worst}"
    assert rep.lsf.min() >= 0.0
    _passline(8, f"100 seeds: path-gain CoV {cov:.4f}, marginals {worst:.1e}")


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_complexity_model():
    # closed forms recomputed inline, independent of the implementation
    for l_u, l_up, l_t in ((1, 1, 1), (2, 2, 64), (3, 2, 8), (10, 10, 2000)):
        est = complexity_estimate(l_u, l_up, l_t)
        assert est.hogmt_flatten == float(l_u * l_up**2 * l_t**3)
        assert est.hogmt_hosvd == float(
            ((l_u + l_up + 2 * l_t) / 4.0) ** 5 + l_u * l_up * l_t**2
        )
        assert est.dpc == float(
            l_t * ((l_u * l_up) ** 3.5 + l_u * l_up**2) * math.factorial(l_up)
        )
    big = complexity_estimate(10, 10, 2000)
    ratio_model = big.dpc / big.hogmt_flatten
    assert ratio_model > 1e3, f"model ratio only {ratio_model:.1e}"

    def median_decomposition_time(l_t):
        cfg = H.ScenarioConfig(
            users=4, tx_antennas=4, time_symbols=l_t, min_delay_taps=2,
            max_delay_taps=2, mode="wssus", doppler_max=0.1, delay_decay=1.0,
        )
        kern = H.to_kernel(H.generate_channel(cfg, 5))
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            H.hogmt_decompose(kern)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    t_small = median_decomposition_time(128)
    t_big = median_decomposition_time(256)
    ratio = t_big / t_small
    assert 4.5 <= ratio <= 8.5, (
        f"doubling the horizon scaled wall time by {ratio:.2f}, "
        f"outside the cubic-regime band [4.5, 8.5]"
    )
    _passline(9, f"formulas exact, model ratio {ratio_model:.1e}, wall-time ratio {ratio:.2f}")


# --------------------------------------------------------------- criterion 10


def test_criterion_10_format_stability(tmp_path):
    config = {
        "scenario": {
            "users": 2, "tx_antennas": 2, "time_symbols": 12,
            "min_delay_taps": 2, "max_delay_taps": 2, "doppler_max": 0.1,
        },
        "sim": {"snr_db": [5.0, 10.0], "min_bits": 10000, "seed": 321,
                "modulation": "qpsk"},
        "stats": {"ensemble": 2},
    }
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(config))

    def run_all(out_dir):
        for sub in ("generate", "decompose", "precode", "simulate", "stats"):
            code = cli_main(
                [sub, "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]
            )
            assert code == 0, f"{sub} exited {code}"

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_all(out_a)
    run_all(out_b)

    compared = []
    for path_a in sorted(out_a.iterdir()):
        if path_a.suffix not in (".ctf", ".csv"):
            continue
        path_b = out_b / path_a.name
        assert path_b.exists(), f"second run missing {path_a.name}"
        assert path_a.read_bytes() == path_b.read_bytes(), (
            f"{path_a.name} differs between identically seeded runs"
        )
        compared.append(path_a.name)
    assert len(compared) >= 10, f"only compared {compared}"
    _passline(10, f"{len(compared)} artifacts byte-identical across reruns")
