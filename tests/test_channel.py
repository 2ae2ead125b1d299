"""Tests for the synthetic channel generator, kernel packing and CTF files."""

import math
import struct

import numpy as np
import pytest

from hogmt import (
    ScenarioConfig,
    SpaceTimeSignal,
    apply_kernel,
    generate_channel,
    interference_split,
    load_ctf,
    save_ctf,
    to_kernel,
    transmit,
)
from hogmt.errors import FormatError, ValidationError
from hogmt.stats import acf


def small_cfg(**kw):
    base = dict(
        users=2,
        tx_antennas=2,
        time_symbols=16,
        min_delay_taps=2,
        max_delay_taps=3,
        mode="wssus",
        doppler_max=0.1,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestScenarioConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.users == 4 and cfg.time_symbols == 256

    @pytest.mark.parametrize(
        "field,value,fragment",
        [
            ("users", 0, "users"),
            ("tx_antennas", -1, "tx_antennas"),
            ("time_symbols", 0, "time_symbols"),
            ("min_delay_taps", 0, "min_delay_taps"),
            ("min_delay_taps", True, "min_delay_taps"),
            ("max_delay_taps", 0, "max_delay_taps"),
            ("mode", "fancy", "mode"),
            ("doppler_max", 0.7, "doppler_max"),
            ("doppler_max", -0.1, "doppler_max"),
            ("spatial_corr", 1.5, "spatial_corr"),
            ("block_len", 0, "block_len"),
        ],
    )
    def test_bad_field_names_field(self, field, value, fragment):
        with pytest.raises(ValidationError) as exc:
            small_cfg(**{field: value})
        assert fragment in str(exc.value)

    def test_spread_ordering_checked(self):
        with pytest.raises(ValidationError):
            small_cfg(min_delay_taps=4, max_delay_taps=2)

    def test_spread_cannot_exceed_horizon(self):
        with pytest.raises(ValidationError):
            small_cfg(time_symbols=4, min_delay_taps=5, max_delay_taps=5)

    def test_drift_nyquist_peak_checked(self):
        # instantaneous Doppler at the end of the horizon must stay below 1/2
        with pytest.raises(ValidationError) as exc:
            small_cfg(mode="drift", doppler_max=0.4, doppler_drift=0.1)
        assert "doppler" in str(exc.value).lower()

    @pytest.mark.parametrize(
        "field", ["doppler_max", "doppler_drift", "spatial_corr", "delay_decay"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValidationError, match=rf"{field} must be in .*, got {value}$"):
            small_cfg(**{field: value})


class TestGenerateChannel:
    def test_shape_and_dtype(self):
        cfg = small_cfg()
        h = generate_channel(cfg, 0)
        assert h.values.shape == (2, 2, 16, 3)
        assert h.values.dtype == np.complex128

    def test_deterministic_in_seed(self):
        cfg = small_cfg()
        a = generate_channel(cfg, 5)
        b = generate_channel(cfg, 5)
        c = generate_channel(cfg, 6)
        np.testing.assert_array_equal(a.values, b.values)
        assert np.abs(a.values - c.values).max() > 1e-3

    def test_spread_masking(self):
        cfg = small_cfg(users=3, tx_antennas=3, min_delay_taps=1, max_delay_taps=4)
        h = generate_channel(cfg, 2)
        spreads = set()
        for u in range(3):
            for up in range(3):
                taps = h.values[u, up]
                nonzero = [k for k in range(4) if np.abs(taps[:, k]).max() > 0]
                # first tap always present, occupied taps are contiguous from 0
                assert nonzero and nonzero == list(range(len(nonzero)))
                spreads.add(len(nonzero))
        # with spreads drawn from 1..4 this seed produces more than one value
        assert len(spreads) > 1

    def test_total_tap_power_is_normalized(self):
        # the exponential delay profile is normalized per pair, so the
        # ensemble-average total power over taps is 1
        cfg = ScenarioConfig(
            users=1, tx_antennas=1, time_symbols=32, min_delay_taps=3,
            max_delay_taps=3, mode="wssus", doppler_max=0.1,
        )
        acc = 0.0
        n_seeds = 200
        for sd in range(n_seeds):
            h = generate_channel(cfg, sd)
            acc += float(np.mean(np.sum(np.abs(h.values[0, 0]) ** 2, axis=1)))
        mean_power = acc / n_seeds
        assert mean_power == pytest.approx(1.0, abs=0.05), (
            f"ensemble tap power {mean_power} should be ~1"
        )

    def test_tap_power_follows_decay_profile(self):
        cfg = ScenarioConfig(
            users=1, tx_antennas=1, time_symbols=64, min_delay_taps=3,
            max_delay_taps=3, mode="wssus", doppler_max=0.1, delay_decay=1.0,
        )
        powers = np.zeros(3)
        for sd in range(150):
            h = generate_channel(cfg, sd)
            powers += np.mean(np.abs(h.values[0, 0]) ** 2, axis=0)
        ratios = powers[1:] / powers[:-1]
        expected = np.exp(-1.0)
        assert np.all(np.abs(ratios - expected) < 0.12), (
            f"tap power ratios {ratios} should track exp(-delay_decay)"
        )

    def test_wssus_zero_doppler_is_time_invariant(self):
        cfg = small_cfg(doppler_max=0.0)
        h = generate_channel(cfg, 3)
        assert np.abs(h.values - h.values[:, :, :1, :]).max() == 0.0

    def test_block_mode_piecewise_constant(self):
        cfg = ScenarioConfig(
            users=2, tx_antennas=2, time_symbols=12, min_delay_taps=2,
            max_delay_taps=2, mode="block", block_len=4, doppler_max=0.0,
        )
        h = generate_channel(cfg, 7)
        v = h.values
        for b in range(3):
            blk = v[:, :, 4 * b : 4 * (b + 1), :]
            assert np.abs(blk - blk[:, :, :1, :]).max() == 0.0
        assert np.abs(v[:, :, 0, :] - v[:, :, 4, :]).max() > 1e-3
        assert np.abs(v[:, :, 4, :] - v[:, :, 8, :]).max() > 1e-3

    def test_spatial_correlation_coefficient(self):
        cfg = ScenarioConfig(
            users=1, tx_antennas=3, time_symbols=64, min_delay_taps=1,
            max_delay_taps=1, mode="wssus", doppler_max=0.1, spatial_corr=0.6,
        )
        num = 0.0 + 0.0j
        e0 = e1 = 0.0
        for sd in range(400):
            g = generate_channel(cfg, sd).values[0, :, :, 0]
            num += np.sum(g[1] * np.conj(g[0]))
            e0 += float(np.sum(np.abs(g[0]) ** 2))
            e1 += float(np.sum(np.abs(g[1]) ** 2))
        corr = abs(num) / np.sqrt(e0 * e1)
        assert corr == pytest.approx(0.6, abs=0.05), (
            f"adjacent-antenna correlation {corr} should be near 0.6"
        )

    def test_drift_power_slope(self):
        # drift mode scales the tap power linearly in time; recover the slope
        # by regressing the normalized ensemble power profile
        cfg = ScenarioConfig(
            users=2, tx_antennas=2, time_symbols=128, min_delay_taps=3,
            max_delay_taps=3, mode="drift", doppler_max=0.04, doppler_drift=0.02,
        )
        l_t = cfg.time_symbols
        prof = np.zeros(l_t)
        count = 0
        for sd in range(200):
            p = np.abs(generate_channel(cfg, sd).values) ** 2  # (u,u',t,tau)
            series = p.transpose(0, 1, 3, 2).reshape(-1, l_t)
            means = series.mean(axis=1, keepdims=True)
            prof += (series / means).sum(axis=0)
            count += series.shape[0]
        prof /= count
        t = np.arange(l_t, dtype=float)
        design = np.stack([np.ones(l_t), t], axis=1)
        (c0, c1), *_ = np.linalg.lstsq(design, prof, rcond=None)
        slope = c1 / c0
        rel = abs(slope - cfg.doppler_drift) / cfg.doppler_drift
        assert rel < 0.10, f"recovered drift slope {slope}, want ~0.02 (rel {rel:.3f})"


class TestAcfBehavior:
    """Ensemble ACF shape: flat for the stationary mode, varying under drift."""

    def _mean_lag_profile(self, cfg, n_seeds, lag):
        rows = []
        for sd in range(n_seeds):
            h = generate_channel(cfg, sd)
            rows.append(acf(h, 0, 0, max_lag=lag)[:, lag])
        arr = np.asarray(rows)
        mean = arr.mean(axis=0)
        se = arr.std(axis=0, ddof=1) / np.sqrt(n_seeds)
        return mean, se

    def test_wssus_acf_start_invariant(self):
        cfg = ScenarioConfig(
            users=1, tx_antennas=1, time_symbols=160, min_delay_taps=4,
            max_delay_taps=4, mode="wssus", doppler_max=0.1,
        )
        mean, se = self._mean_lag_profile(cfg, 300, lag=5)
        z = (mean - mean.mean()) / np.maximum(se, 1e-30)
        assert np.abs(z).max() < 3.0, (
            f"stationary-mode ACF should not depend on the start (max |z| {np.abs(z).max():.2f})"
        )

    def test_drift_acf_varies_with_start(self):
        cfg = ScenarioConfig(
            users=1, tx_antennas=1, time_symbols=160, min_delay_taps=4,
            max_delay_taps=4, mode="drift", doppler_max=0.05, doppler_drift=0.03,
        )
        mean, se = self._mean_lag_profile(cfg, 300, lag=5)
        z = (mean - mean.mean()) / np.maximum(se, 1e-30)
        assert np.abs(z).max() > 3.0, (
            "drift-mode ACF at fixed lag should change significantly with the start"
        )


class TestToKernel:
    def test_matches_shift_oracle(self):
        cfg = small_cfg(users=2, tx_antennas=3, time_symbols=6)
        h = generate_channel(cfg, 9)
        kern = to_kernel(h)
        l_u, l_up, l_t, l_tau = h.dims
        for u in range(l_u):
            for t in range(l_t):
                for up in range(l_up):
                    for tp in range(l_t):
                        d = t - tp
                        want = h.values[u, up, t, d] if 0 <= d < l_tau else 0.0
                        assert kern.values[u, t, up, tp] == want

    def test_kernel_is_causal_banded(self):
        h = generate_channel(small_cfg(), 1)
        kern = to_kernel(h)
        tt = np.arange(h.dims[2])
        diff = tt[:, None] - tt[None, :]
        outside = (diff < 0) | (diff >= h.dims[3])
        mask = np.broadcast_to(outside[None, :, None, :], kern.values.shape)
        assert np.abs(kern.values[mask]).max() == 0.0


class TestTransmit:
    def test_noise_free_equals_apply(self):
        cfg = small_cfg()
        h = generate_channel(cfg, 4)
        kern = to_kernel(h)
        rng = np.random.default_rng(0)
        x = SpaceTimeSignal(grid=rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16)))
        r = transmit(kern, x, noise_var=0.0)
        np.testing.assert_array_equal(r.grid, apply_kernel(kern, x).grid)

    def test_noise_variance_calibrated(self):
        cfg = small_cfg(time_symbols=32)
        h = generate_channel(cfg, 4)
        kern = to_kernel(h)
        rng = np.random.default_rng(1)
        x = SpaceTimeSignal(grid=rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32)))
        clean = apply_kernel(kern, x).grid
        nv = 0.37
        acc = 0.0
        n = 0
        for sd in range(200):
            r = transmit(kern, x, noise_var=nv, seed=sd)
            acc += float(np.sum(np.abs(r.grid - clean) ** 2))
            n += clean.size
        est = acc / n
        assert est == pytest.approx(nv, rel=0.04), f"noise variance {est}, want {nv}"

    def test_noise_deterministic_per_seed(self):
        cfg = small_cfg()
        h = generate_channel(cfg, 4)
        kern = to_kernel(h)
        x = SpaceTimeSignal(grid=np.ones((2, 16), dtype=complex))
        r1 = transmit(kern, x, noise_var=1.0, seed=77)
        r2 = transmit(kern, x, noise_var=1.0, seed=77)
        np.testing.assert_array_equal(r1.grid, r2.grid)

    @pytest.mark.parametrize("noise_var", [0.0, 0.1])
    def test_output_kind_follows_input(self, noise_var):
        kern = to_kernel(generate_channel(small_cfg(), 4))
        grid = np.ones((2, 16), dtype=complex)
        plain = transmit(kern, grid, noise_var, seed=3)
        signal = transmit(kern, SpaceTimeSignal(grid=grid), noise_var, seed=3)
        assert type(plain) is np.ndarray and plain.shape == (2, 16)
        assert type(signal) is SpaceTimeSignal
        np.testing.assert_array_equal(plain, signal.grid)
        clean = apply_kernel(kern, grid)
        assert np.array_equal(plain, clean) == (noise_var == 0.0)

    def test_negative_noise_rejected(self):
        h = generate_channel(small_cfg(), 4)
        x = SpaceTimeSignal(grid=np.ones((2, 16), dtype=complex))
        with pytest.raises(ValidationError):
            transmit(to_kernel(h), x, noise_var=-0.5)


class TestInterferenceSplit:
    def test_terms_sum_to_kernel_output(self):
        cfg = small_cfg(users=3, tx_antennas=3)
        h = generate_channel(cfg, 6)
        rng = np.random.default_rng(2)
        s = SpaceTimeSignal(grid=rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16)))
        split = interference_split(h, s)
        full = apply_kernel(to_kernel(h), s).grid
        err = np.abs(split.total() - full).max()
        assert err <= 1e-12 * max(np.abs(full).max(), 1.0), f"recomposition error {err}"

    def test_single_tap_has_no_temporal_terms(self):
        cfg = small_cfg(min_delay_taps=1, max_delay_taps=1)
        h = generate_channel(cfg, 8)
        s = SpaceTimeSignal(grid=np.ones((2, 16), dtype=complex))
        split = interference_split(h, s)
        scale = np.abs(split.total()).max()
        # the terms are assembled by differencing, so allow rounding residue
        assert np.abs(split.temporal.grid).max() <= 1e-14 * scale
        assert np.abs(split.joint.grid).max() <= 1e-14 * scale
        assert np.abs(split.spatial.grid).max() > 1e-3


class TestCtfFormat:
    def test_roundtrip_exact(self, tmp_path):
        h = generate_channel(small_cfg(), 10)
        path = tmp_path / "chan.ctf"
        save_ctf(h, path)
        back = load_ctf(path)
        np.testing.assert_array_equal(back.values, h.values)

    def test_header_layout(self, tmp_path):
        h = generate_channel(small_cfg(), 10)
        path = tmp_path / "chan.ctf"
        save_ctf(h, path)
        raw = path.read_bytes()
        assert raw[:8] == b"HGMTCTF1"
        dims = np.frombuffer(raw[12:28], dtype="<u4")
        assert tuple(dims) == h.dims
        assert len(raw) == 28 + 16 * int(np.prod(h.dims))

    @pytest.mark.parametrize(
        "mutate,offset",
        [
            (lambda b: b"XXXXXXXX" + b[8:], 0),
            (lambda b: b[:5], 0),  # shorter than the magic
            (lambda b: b[:8] + (99).to_bytes(4, "little") + b[12:], 8),
            (lambda b: b[:10], 8),  # cut inside the version field
            (lambda b: b[:12] + (0).to_bytes(4, "little") + b[16:], 12),
            (lambda b: b[:20], 12),  # cut inside the dimension header
            # 2**48 declared entries, rejected before any allocation
            (lambda b: b[:12] + struct.pack("<4I", 2**16, 2**16, 2**16, 1) + b[28:], 12),
            (lambda b: b[:-8], 28),
            (lambda b: b + b"\x00" * 4, 28),
            (lambda b: b[:28] + struct.pack("<d", math.nan) + b[36:], 28),
        ],
    )
    def test_malformed_files_report_offset(self, tmp_path, mutate, offset):
        h = generate_channel(small_cfg(), 10)
        path = tmp_path / "chan.ctf"
        save_ctf(h, path)
        bad = tmp_path / "bad.ctf"
        bad.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(FormatError) as exc:
            load_ctf(bad)
        assert exc.value.offset == offset

    def test_delay_axis_longer_than_time_rejected(self, tmp_path):
        h = generate_channel(small_cfg(), 10)
        path = tmp_path / "chan.ctf"
        save_ctf(h, path)
        raw = bytearray(path.read_bytes())
        # overwrite the L_tau field with something larger than L_t
        raw[24:28] = (999).to_bytes(4, "little")
        bad = tmp_path / "bad.ctf"
        bad.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as exc:
            load_ctf(bad)
        assert exc.value.offset == 12
