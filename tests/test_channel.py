"""Tests for the synthetic channel generator, kernel packing and CTF files."""

import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from hogmt import (
    ImpulseResponse4D,
    ScenarioConfig,
    SpaceTimeSignal,
    apply_kernel,
    generate_channel,
    load_ctf,
    save_ctf,
    to_kernel,
)
from hogmt import channel as channel_mod
from hogmt.channel import _SEED_CHANNEL, _SINUSOIDS_PER_TAP, _substream
from hogmt.errors import FormatError, ValidationError


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


def _loop_channel(cfg, seed):
    """Scalar per-tap rebuild of a channel from the documented draw order."""
    m = _SINUSOIDS_PER_TAP
    l_u, l_up, l_t, l_tau = (cfg.users, cfg.tx_antennas, cfg.time_symbols,
                             cfg.max_delay_taps)
    rng = _substream(seed, _SEED_CHANNEL)
    block_len = l_t if cfg.mode == "wssus" else cfg.block_len
    n_blocks = -(-l_t // block_len)
    if cfg.mode == "drift":
        alphas = rng.uniform(0.0, 2.0 * np.pi, size=(l_u, l_up, l_tau, m))
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=(l_u, l_up, l_tau, m))
    else:
        k_max = math.floor(cfg.doppler_max * l_t)
        ks = rng.integers(-k_max, k_max + 1, size=(l_u, l_up, l_tau, n_blocks, m))
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=(l_u, l_up, l_tau, n_blocks, m))
    spreads = rng.integers(cfg.min_delay_taps, cfg.max_delay_taps + 1, size=(l_u, l_up))

    raw = np.zeros((l_u, l_up, l_t, l_tau), dtype=complex)
    for u in range(l_u):
        for up in range(l_up):
            for tau in range(l_tau):
                for t in range(l_t):
                    acc = 0j
                    for j in range(m):
                        if cfg.mode == "drift":
                            nu = cfg.doppler_max * math.cos(alphas[u, up, tau, j])
                            chirp = t * (1.0 + 0.5 * cfg.doppler_drift * t)
                            acc += np.exp(1j * (thetas[u, up, tau, j] + 2 * np.pi * nu * chirp))
                        else:
                            b = t // block_len
                            k, th = ks[u, up, tau, b, j], thetas[u, up, tau, b, j]
                            acc += np.exp(1j * (2 * np.pi * k * t / l_t + th))
                    env = math.sqrt(1.0 + cfg.doppler_drift * t) if cfg.mode == "drift" else 1.0
                    raw[u, up, t, tau] = env * acc / math.sqrt(m)
    if cfg.spatial_corr > 0:
        corr = np.array([[cfg.spatial_corr ** abs(a - b) for b in range(l_up)]
                         for a in range(l_up)])
        chol = np.linalg.cholesky(corr)
        for u in range(l_u):
            for t in range(l_t):
                for tau in range(l_tau):
                    raw[u, :, t, tau] = chol @ raw[u, :, t, tau]
    h = np.zeros_like(raw)
    for u in range(l_u):
        for up in range(l_up):
            spread = spreads[u, up]
            prof = np.array([math.exp(-cfg.delay_decay * tau) for tau in range(spread)])
            h[u, up, :, :spread] = raw[u, up, :, :spread] * np.sqrt(prof / prof.sum())
    return h


class TestChannelDraw:
    """The one-substream draw against a loop oracle and the generator's truth."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(mode="drift", doppler_max=0.1, doppler_drift=0.05),
            dict(mode="wssus", doppler_max=0.2),
            dict(mode="block", block_len=4, doppler_max=0.15),  # 4 does not divide 10
            dict(mode="drift", doppler_max=0.1, doppler_drift=0.02, spatial_corr=0.7),
            dict(mode="block", block_len=3, doppler_max=0.2, spatial_corr=0.4),
            dict(mode="wssus", doppler_max=0.3, spatial_corr=0.5),
            dict(mode="block", block_len=1, doppler_max=0.2),  # a fresh block every symbol
            dict(mode="block", block_len=25, doppler_max=0.2),  # one block longer than L_t
        ],
    )
    def test_matches_loop_oracle(self, kw):
        cfg = ScenarioConfig(users=2, tx_antennas=3, time_symbols=10, min_delay_taps=1,
                             max_delay_taps=3, delay_decay=0.7, **kw)
        for seed in (0, 11):
            got = generate_channel(cfg, seed).values
            want = _loop_channel(cfg, seed)
            assert np.abs(got - want).max() <= 1e-12, kw
            # zero taps sit exactly where the drawn spread ends
            np.testing.assert_array_equal(got == 0, want == 0)

    @pytest.mark.parametrize("mode", ["wssus", "block", "drift"])
    def test_one_substream_per_channel(self, monkeypatch, mode):
        calls = []

        def counting(*args):
            calls.append(args)
            return _substream(*args)

        monkeypatch.setattr(channel_mod, "_substream", counting)
        generate_channel(small_cfg(users=3, tx_antennas=2, mode=mode, block_len=5), 9)
        assert calls == [(9, _SEED_CHANNEL)]

    def test_mean_tap_power_matches_profile(self):
        # On the DFT grid the time-mean power of a unit tap is
        # X = 1 + (1/8) sum_{m<m'} [k_m = k_m'] cos(theta_m - theta_m'),
        # so E X = 1 and Var X = (15/16) q with q = 1/(2 k_max + 1) the
        # chance that two frequencies coincide.  Every (seed, u, u') gives an
        # independent sample of each tap, so 5 standard errors bound the
        # error of the mean power of tap tau at 5 p_tau sqrt(15 q / 16 n).
        cfg = ScenarioConfig(users=4, tx_antennas=4, time_symbols=64, min_delay_taps=4,
                             max_delay_taps=4, mode="wssus", doppler_max=0.2,
                             delay_decay=0.6)
        n_seeds = 100
        power = np.zeros(4)
        for sd in range(n_seeds):
            power += np.mean(np.abs(generate_channel(cfg, sd).values) ** 2, axis=(0, 1, 2))
        power /= n_seeds
        n = n_seeds * cfg.users * cfg.tx_antennas
        q = 1.0 / (2 * math.floor(cfg.doppler_max * cfg.time_symbols) + 1)
        profile = np.exp(-cfg.delay_decay * np.arange(4))
        profile /= profile.sum()
        tol = 5.0 * profile * math.sqrt(15.0 / 16.0 * q / n)
        assert np.all(np.abs(power - profile) <= tol), (power, profile, tol)

    def test_wssus_doppler_support_within_band(self):
        cfg = ScenarioConfig(users=2, tx_antennas=2, time_symbols=40, min_delay_taps=3,
                             max_delay_taps=3, mode="wssus", doppler_max=0.1)
        k_max = math.floor(cfg.doppler_max * cfg.time_symbols)
        bins = np.fft.fftfreq(cfg.time_symbols, 1.0 / cfg.time_symbols).round()
        used = set()
        for sd in range(20):
            spec = np.abs(np.fft.fft(generate_channel(cfg, sd).values, axis=2)) ** 2
            outside = spec[:, :, np.abs(bins) > k_max, :]
            assert outside.max() <= 1e-20 * spec.max()
            used.update(bins[spec.max(axis=(0, 1, 3)) > 1e-12 * spec.max()].astype(int))
        # the band is used up to its edges, so it is not narrower than drawn
        assert used == set(range(-k_max, k_max + 1))

    @pytest.mark.parametrize("block_len", [20, 33])
    def test_wssus_is_block_with_one_full_block(self, block_len):
        kw = dict(users=2, tx_antennas=3, time_symbols=20, min_delay_taps=1,
                  max_delay_taps=3, doppler_max=0.2, spatial_corr=0.3)
        for seed in (1, 8):
            wssus = generate_channel(ScenarioConfig(mode="wssus", **kw), seed).values
            block = generate_channel(
                ScenarioConfig(mode="block", block_len=block_len, **kw), seed
            ).values
            np.testing.assert_array_equal(wssus, block)

    @pytest.mark.parametrize("block_len", [3, 5, 7])
    def test_every_block_is_redrawn(self, block_len):
        # with zero Doppler each block is one constant draw, the short last one too
        cfg = ScenarioConfig(users=2, tx_antennas=2, time_symbols=16, min_delay_taps=2,
                             max_delay_taps=2, mode="block", block_len=block_len,
                             doppler_max=0.0)
        v = generate_channel(cfg, 4).values
        starts = list(range(0, 16, block_len))
        for a, b in zip(starts, starts[1:] + [16]):
            assert np.abs(v[:, :, a:b] - v[:, :, a:a + 1]).max() == 0.0
        for a, b in zip(starts, starts[1:]):
            assert np.abs(v[:, :, a] - v[:, :, b]).min() > 1e-9, (a, b)

    @pytest.mark.parametrize("mode", ["wssus", "block", "drift"])
    def test_temporaries_are_bounded_per_receive_user(self, mode):
        # Phases are built one receive user at a time, so the peak allocation
        # is a few output-sized arrays plus a few arrays of L_u' L_tau L_t 16
        # phases; with 16 users a whole-channel phase array alone is 16 times
        # that and breaks the bound.
        cfg = ScenarioConfig(users=16, tx_antennas=4, time_symbols=256, min_delay_taps=1,
                             max_delay_taps=4, mode=mode, block_len=64, doppler_max=0.05,
                             doppler_drift=0.001 if mode == "drift" else 0.0,
                             spatial_corr=0.5)
        generate_channel(cfg, 0)
        tracemalloc.start()
        try:
            out = generate_channel(cfg, 0).values.nbytes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_user = cfg.tx_antennas * cfg.max_delay_taps * cfg.time_symbols * 16 * 8
        assert peak <= 4 * out + 4 * per_user, (peak, out, per_user)

    def test_delay_spreads_are_uniform(self):
        # a pair's spread is its count of non-zero taps; over 800 independent
        # pairs the counts of spreads 1..4 pass a chi-square test at p = 0.001
        cfg = ScenarioConfig(users=4, tx_antennas=4, time_symbols=8, min_delay_taps=1,
                             max_delay_taps=4, mode="wssus", doppler_max=0.2)
        counts = np.zeros(5, dtype=int)
        for sd in range(50):
            nonzero = np.abs(generate_channel(cfg, sd).values).max(axis=2) > 0
            spreads = nonzero.sum(axis=-1)
            # the occupied taps are the first `spread` ones
            assert np.array_equal(nonzero, np.arange(4) < spreads[..., None])
            counts += np.bincount(spreads.ravel(), minlength=5)
        assert counts[0] == 0
        expected = counts.sum() / 4
        chi2 = float(np.sum((counts[1:] - expected) ** 2 / expected))
        assert chi2 < 16.27, counts

    def test_spatial_correlation_mixes_the_uncorrelated_draw(self):
        # correlation consumes no draws: the lower Cholesky factor of
        # [[1, r], [r, 1]] keeps antenna 0 and mixes antenna 1 as r x0 + sqrt(1-r^2) x1
        kw = dict(users=2, tx_antennas=2, time_symbols=12, min_delay_taps=2,
                  max_delay_taps=2, mode="drift", doppler_max=0.1, doppler_drift=0.01)
        r = 0.6
        plain = generate_channel(ScenarioConfig(**kw), 5).values
        mixed = generate_channel(ScenarioConfig(spatial_corr=r, **kw), 5).values
        np.testing.assert_array_equal(mixed[:, 0], plain[:, 0])
        np.testing.assert_allclose(
            mixed[:, 1], r * plain[:, 0] + math.sqrt(1 - r * r) * plain[:, 1],
            rtol=0, atol=1e-12,
        )

    def test_spatial_correlation_is_a_no_op_for_one_antenna(self):
        kw = dict(users=3, tx_antennas=1, time_symbols=12, min_delay_taps=1,
                  max_delay_taps=3, mode="block", block_len=5, doppler_max=0.2)
        np.testing.assert_array_equal(
            generate_channel(ScenarioConfig(spatial_corr=0.9, **kw), 2).values,
            generate_channel(ScenarioConfig(**kw), 2).values,
        )

    def test_delay_profile_only_scales_the_taps(self):
        # the profile consumes no draws, so two decays give the same spreads
        # and tap processes, in the ratio of their normalized amplitudes
        kw = dict(users=3, tx_antennas=2, time_symbols=12, min_delay_taps=1,
                  max_delay_taps=4, mode="wssus", doppler_max=0.2)
        a = generate_channel(ScenarioConfig(delay_decay=0.2, **kw), 6).values
        b = generate_channel(ScenarioConfig(delay_decay=1.5, **kw), 6).values
        np.testing.assert_array_equal(a == 0, b == 0)
        taus = np.arange(4)
        spreads = (np.abs(a).max(axis=2) > 0).sum(axis=-1)
        for u in range(3):
            for up in range(2):
                s = spreads[u, up]
                pa = np.exp(-0.2 * taus[:s])
                pb = np.exp(-1.5 * taus[:s])
                ratio = np.sqrt((pb / pb.sum()) / (pa / pa.sum()))
                np.testing.assert_allclose(b[u, up, :, :s], a[u, up, :, :s] * ratio,
                                           rtol=1e-12, atol=0)

    def test_seed_tags_are_disjoint(self):
        tags = {name: value for name, value in vars(channel_mod).items()
                if name.startswith("_SEED_")}
        assert "_SEED_CHANNEL" in tags
        assert len(set(tags.values())) == len(tags), tags


class TestAcfBehavior:
    """Ensemble ACF shape: flat for the stationary mode, varying under drift."""

    def _mean_lag_profile(self, cfg, n_seeds, lag):
        # per start t: |sum_tau g[t+lag,tau] conj(g[t,tau])| over the geometric
        # mean of the two instants' energies
        rows = []
        for sd in range(n_seeds):
            g = generate_channel(cfg, sd).values[0, 0]  # (L_t, L_tau)
            corr = np.abs(np.sum(g[lag:] * np.conj(g[:-lag]), axis=1))
            energy = np.sum(np.abs(g) ** 2, axis=1)
            rows.append(corr / np.sqrt(energy[lag:] * energy[:-lag]))
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

    def test_kernel_output_is_the_time_varying_convolution(self):
        # r[u, t] = sum_{u', tau} h[u, u', t, tau] s[u', t - tau]
        h = generate_channel(small_cfg(users=3, tx_antennas=3), 6)
        rng = np.random.default_rng(2)
        s = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
        want = np.zeros((3, 16), dtype=complex)
        for tau in range(h.dims[3]):
            want[:, tau:] += np.einsum("avt,vt->at", h.values[:, :, tau:, tau], s[:, : 16 - tau])
        full = apply_kernel(to_kernel(h), SpaceTimeSignal(grid=s)).grid
        np.testing.assert_allclose(full, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_single_tap_has_no_interference_across_time(self):
        h = generate_channel(small_cfg(min_delay_taps=1, max_delay_taps=1), 8)
        s = np.zeros((2, 16), dtype=complex)
        s[:, 5] = 1.0  # one instant: the output must stay at that instant
        r = apply_kernel(to_kernel(h), SpaceTimeSignal(grid=s)).grid
        assert np.abs(np.delete(r, 5, axis=1)).max() == 0.0
        # the spatial terms remain: each user hears both antennas
        np.testing.assert_allclose(r[:, 5], h.values[:, :, 5, 0].sum(axis=1), rtol=1e-12)
        assert np.abs(h.values[:, :, 5, 0]).min() > 1e-3


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
            (lambda b: b[:28] + struct.pack("<d", math.inf) + b[36:], 28),
            (lambda b: b[:36] + struct.pack("<d", -math.inf) + b[44:], 28),  # imaginary part
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
        if offset == 28:
            assert "payload" in str(exc.value)

    @pytest.mark.parametrize(
        "entries",
        [
            {-1: complex(math.nan, 0.0)},
            {-1: complex(0.0, math.inf)},
            {-1: complex(-math.inf, 0.0)},
            {0: complex(math.inf, 0.0), -1: complex(-math.inf, 0.0)},
        ],
        ids=["nan-last-real", "inf-last-imag", "minus-inf-last-real", "opposite-infinities"],
    )
    def test_non_finite_entry_anywhere_is_a_payload_error(self, tmp_path, entries):
        path = tmp_path / "chan.ctf"
        save_ctf(generate_channel(small_cfg(), 10), path)
        raw = bytearray(path.read_bytes())
        payload = np.frombuffer(raw, dtype="<c16", offset=28)
        for index, value in entries.items():
            payload[index] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="payload") as exc:
            load_ctf(path)
        assert exc.value.offset == 28

    def test_payload_whose_sum_overflows_loads(self, tmp_path):
        # every entry is finite but their sum is not, so the check goes entry by entry
        values = np.full((2, 2, 4, 2), 1e308 - 1e308j)
        path = tmp_path / "chan.ctf"
        save_ctf(ImpulseResponse4D(values), path)
        np.testing.assert_array_equal(load_ctf(path).values, values)

    def test_load_peaks_at_the_payload(self, tmp_path):
        # the payload is read once and checked in place, with no mask of its size
        rng = np.random.default_rng(0)
        shape = (4, 4, 4096, 4)  # 4 MiB of payload
        h = ImpulseResponse4D(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        path = tmp_path / "chan.ctf"
        save_ctf(h, path)
        tracemalloc.start()
        try:
            back = load_ctf(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.values, h.values)
        assert peak < h.values.nbytes * (1 + 1 / 32), peak

    @pytest.mark.parametrize(
        "header,offset",
        [
            (b"XXXXXXXX" + bytes(20), 0),
            # a valid header declaring 1 KiB of payload
            (struct.pack("<8s5I", b"HGMTCTF1", 1, 2, 2, 16, 4), 28),
        ],
    )
    def test_malformed_file_rejected_before_payload_read(self, tmp_path, header, offset):
        # a 64 MiB sparse file: the header and the file size reject it, so the
        # payload is never read into memory
        bad = tmp_path / "big.ctf"
        with open(bad, "wb") as fh:
            fh.write(header)
            fh.truncate(64 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as exc:
                load_ctf(bad)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.offset == offset
        assert peak < 1 << 20, peak

    @staticmethod
    def _load_through_pipe(data):
        r, w = os.pipe()
        os.write(w, data)  # fits the pipe buffer, so no writer thread
        os.close(w)
        try:
            return load_ctf(f"/dev/fd/{r}")
        finally:
            os.close(r)

    def test_pipe_input(self, tmp_path):
        # a pipe has no size before it is read, as in `hogmt decompose <(cat f)`
        h = generate_channel(small_cfg(), 10)
        save_ctf(h, tmp_path / "chan.ctf")
        raw = (tmp_path / "chan.ctf").read_bytes()
        np.testing.assert_array_equal(self._load_through_pipe(raw).values, h.values)
        with pytest.raises(FormatError, match="payload holds 3064 bytes") as exc:
            self._load_through_pipe(raw[:-8])
        assert exc.value.offset == 28

    @pytest.mark.parametrize("piece", [1, 7])
    def test_pipe_payload_read_in_pieces(self, tmp_path, monkeypatch, piece):
        monkeypatch.setattr(channel_mod, "_PIPE_PIECE", piece)
        h = generate_channel(small_cfg(), 10)
        save_ctf(h, tmp_path / "chan.ctf")
        raw = (tmp_path / "chan.ctf").read_bytes()  # 3072 bytes of payload
        np.testing.assert_array_equal(self._load_through_pipe(raw).values, h.values)
        with pytest.raises(FormatError, match="payload holds more than 3072 bytes"):
            self._load_through_pipe(raw + b"x")
        with pytest.raises(FormatError, match="payload holds 3064 bytes"):
            self._load_through_pipe(raw[:-8])

    def test_pipe_declaring_a_huge_payload_is_a_format_error(self):
        # 16 TiB declared, none sent: the first piece is all that is asked
        # for, so the short stream is reported instead of a MemoryError
        header = struct.pack("<8s5I", b"HGMTCTF1", 1, 1024, 1024, 1024, 1024)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="payload holds 0 bytes") as exc:
                self._load_through_pipe(header)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.offset == 28
        assert peak < channel_mod._PIPE_PIECE + (1 << 20), peak

    def test_pipe_is_read_to_one_byte_past_the_payload(self):
        # a header declaring 4 KiB of payload, followed by 8 MiB: the excess
        # shows at the first byte past the payload, so the rest stays unread
        header = struct.pack("<8s5I", b"HGMTCTF1", 1, 2, 2, 16, 4)
        r, w = os.pipe()

        def write():
            try:
                os.write(w, header)
                for _ in range(128):
                    os.write(w, bytes(1 << 16))
            except BrokenPipeError:
                pass  # the reader closed its end
            finally:
                os.close(w)

        writer = threading.Thread(target=write)
        writer.start()
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="payload holds more than 4096 bytes") as exc:
                load_ctf(f"/dev/fd/{r}")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            os.close(r)
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert exc.value.offset == 28
        assert peak < 1 << 20, peak

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
