"""Tests for channel statistics: transfer grids, atomic kernels, CMD."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from hogmt import (
    GaussianPrototype,
    ImpulseResponse4D,
    ScenarioConfig,
    atomic_kernel,
    cmd,
    decompose_atomic,
    generate_channel,
    spreading_function,
    stationarity_interval,
    stats_from_decomp,
    tf_transfer,
)
from hogmt.errors import DimensionMismatchError, ValidationError
from hogmt.stats import _window_correlations


def chan(seed=0, **kw):
    base = dict(
        users=1, tx_antennas=1, time_symbols=8, min_delay_taps=3,
        max_delay_taps=3, mode="wssus", doppler_max=0.1,
    )
    base.update(kw)
    return generate_channel(ScenarioConfig(**base), seed)


def tap_grid(h):
    return h.values[0, 0]  # (L_t, L_tau)


class TestTransferGrids:
    def test_transfer_matches_dft_oracle(self):
        h = chan(1)
        g = tap_grid(h)
        l_t, l_tau = g.shape
        lv = tf_transfer(h, 0, 0)
        assert lv.shape == (l_t, l_tau)
        for t in range(l_t):
            for f in range(l_tau):
                want = sum(
                    g[t, k] * np.exp(-2j * np.pi * f * k / l_tau)
                    for k in range(l_tau)
                )
                assert abs(lv[t, f] - want) <= 1e-12

    def test_transfer_parseval(self):
        h = chan(2)
        g = tap_grid(h)
        lv = tf_transfer(h, 0, 0)
        per_t_freq = np.sum(np.abs(lv) ** 2, axis=1)
        per_t_tap = g.shape[1] * np.sum(np.abs(g) ** 2, axis=1)
        np.testing.assert_allclose(per_t_freq, per_t_tap, rtol=1e-12)

    def test_time_invariant_transfer_constant_rows(self):
        h = chan(3, doppler_max=0.0)
        lv = tf_transfer(h, 0, 0)
        assert np.abs(lv - lv[:1]).max() == 0.0

    def test_spreading_of_time_invariant_channel(self):
        h = chan(4, doppler_max=0.0)
        g = tap_grid(h)
        sv = spreading_function(h, 0, 0)  # (tau, nu)
        assert sv.shape == (g.shape[1], g.shape[0])
        np.testing.assert_allclose(sv[:, 0], g[0], rtol=0, atol=1e-12)
        assert np.abs(sv[:, 1:]).max() <= 1e-12

    def test_spreading_of_on_grid_tone(self):
        # a pure complex tone on the DFT grid concentrates at its own shift
        l_t, l_tau, k, tau0 = 16, 3, 5, 1
        vals = np.zeros((1, 1, l_t, l_tau), dtype=complex)
        vals[0, 0, :, tau0] = np.exp(2j * np.pi * k * np.arange(l_t) / l_t)
        h = ImpulseResponse4D(vals)
        sv = spreading_function(h, 0, 0)
        want = np.zeros((l_tau, l_t), dtype=complex)
        want[tau0, k] = 1.0
        np.testing.assert_allclose(sv, want, rtol=0, atol=1e-12)

    def test_spreading_consistent_with_transfer(self):
        # second route: undo the delay DFT of the transfer grid, then take
        # the Doppler DFT; must agree with the direct computation
        h = chan(5, time_symbols=12)
        lv = tf_transfer(h, 0, 0)
        g_back = np.fft.ifft(lv, axis=1)
        sv2 = (np.fft.fft(g_back, axis=0) / g_back.shape[0]).T
        np.testing.assert_allclose(
            spreading_function(h, 0, 0), sv2, rtol=0, atol=1e-12
        )

    def test_bad_pair_index(self):
        h = chan(6)
        with pytest.raises(ValidationError):
            tf_transfer(h, 2, 0)


class TestGaussianPrototype:
    def test_unit_norm(self):
        g = GaussianPrototype().on_lattice(8, 5)
        assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-12)

    def test_circular_symmetry(self):
        g = GaussianPrototype(spread_t=2.0, spread_f=1.5).on_lattice(8, 6)
        for a in range(1, 8):
            np.testing.assert_allclose(g[a], g[-a % 8], rtol=1e-12)
        for b in range(1, 6):
            np.testing.assert_allclose(g[:, b], g[:, -b % 6], rtol=1e-12)

    def test_invalid_spreads(self):
        with pytest.raises(ValidationError):
            GaussianPrototype(spread_t=0.0)

    def test_window_must_be_a_gaussian_prototype(self):
        h = chan(7)
        lv = tf_transfer(h, 0, 0)
        unit_grid = GaussianPrototype().on_lattice(*lv.shape)
        with pytest.raises(ValidationError, match="prototype"):
            atomic_kernel(lv, unit_grid)
        with pytest.raises(ValidationError, match="transfer"):
            atomic_kernel(GaussianPrototype(), GaussianPrototype())


class TestAtomicKernel:
    def test_matches_direct_sum_oracle(self):
        h = chan(8, time_symbols=4, min_delay_taps=2, max_delay_taps=2)
        lv = tf_transfer(h, 0, 0)
        n_t, n_f = lv.shape
        window = GaussianPrototype(spread_t=1.5, spread_f=1.0)
        proto = window.on_lattice(n_t, n_f)
        ak = atomic_kernel(lv, window)
        assert ak.shape == (n_t, n_f, n_f, n_t)
        for t in range(n_t):
            for f in range(n_f):
                for tau in range(n_f):
                    for nu in range(n_t):
                        acc = 0.0 + 0.0j
                        for tp in range(n_t):
                            for fp in range(n_f):
                                acc += (
                                    lv[tp, fp]
                                    * np.conj(proto[(tp - t) % n_t, (fp - f) % n_f])
                                    * np.exp(-2j * np.pi * (nu * tp / n_t - tau * fp / n_f))
                                )
                        acc *= np.exp(2j * np.pi * f * tau / n_f)
                        got = ak[t, f, tau, nu]
                        assert abs(got - acc) <= 1e-10, (t, f, tau, nu, got, acc)

    def test_linear_in_transfer(self):
        h1, h2 = chan(9), chan(10)
        t1, t2 = tf_transfer(h1, 0, 0), tf_transfer(h2, 0, 0)
        proto = GaussianPrototype()
        a_mixed = atomic_kernel(2.0 * t1 - 1j * t2, proto)
        a_sep = 2.0 * atomic_kernel(t1, proto) - 1j * atomic_kernel(t2, proto)
        np.testing.assert_allclose(a_mixed, a_sep, rtol=1e-11, atol=1e-11)

    def test_decompose_atomic_reconstructs(self):
        h = chan(11, time_symbols=6)
        ak = atomic_kernel(tf_transfer(h, 0, 0), GaussianPrototype())
        dec = decompose_atomic(ak)
        n_t, n_f, n_tau, n_nu = ak.shape
        assert dec.psis.shape[1:] == (n_t, n_f)
        assert dec.phis.shape[1:] == (n_tau, n_nu)
        rec = np.einsum("n,nab,ncd->abcd", dec.sigmas, dec.psis, dec.phis)
        err = np.linalg.norm(rec - ak) / np.linalg.norm(ak)
        assert err <= 1e-10


class TestStatsReport:
    def _decomp(self, seed, l_t=8):
        h = chan(seed, time_symbols=l_t)
        ak = atomic_kernel(tf_transfer(h, 0, 0), GaussianPrototype())
        return decompose_atomic(ak)

    def test_marginal_identities(self):
        dec = self._decomp(12)
        rep = stats_from_decomp(dec)
        # delay-Doppler marginal of the local scattering grid is the TF path
        # gain; the time-frequency marginal is the scattering profile
        np.testing.assert_allclose(
            rep.lsf.sum(axis=(2, 3)), rep.path_gain, rtol=1e-12
        )
        np.testing.assert_allclose(
            rep.lsf.sum(axis=(0, 1)), rep.scattering, rtol=1e-12
        )
        assert rep.scattering.sum() == pytest.approx(rep.total_gain, rel=1e-12)
        assert rep.path_gain.sum() == pytest.approx(rep.total_gain, rel=1e-12)

    def test_everything_nonnegative(self):
        rep = stats_from_decomp(self._decomp(13))
        assert rep.lsf.min() >= 0
        assert rep.scattering.min() >= 0
        assert rep.path_gain.min() >= 0

    def test_ensemble_is_elementwise_average(self):
        a, b = self._decomp(14), self._decomp(15)
        ra, rb = stats_from_decomp(a), stats_from_decomp(b)
        rab = stats_from_decomp(None, ensemble=[a, b])
        assert rab.ensemble_size == 2
        np.testing.assert_allclose(rab.lsf, (ra.lsf + rb.lsf) / 2, rtol=1e-12)
        np.testing.assert_allclose(
            rab.path_gain, (ra.path_gain + rb.path_gain) / 2, rtol=1e-12
        )
        assert rab.total_gain == pytest.approx(
            (ra.total_gain + rb.total_gain) / 2, rel=1e-12
        )

    def test_ensemble_validation(self):
        with pytest.raises(ValidationError):
            stats_from_decomp(None)
        with pytest.raises(ValidationError):
            stats_from_decomp(None, ensemble=[])
        a = self._decomp(16, l_t=8)
        b = self._decomp(17, l_t=6)
        with pytest.raises(DimensionMismatchError):
            stats_from_decomp(None, ensemble=[a, b])

    def test_decomp_and_ensemble_together_rejected(self):
        # a decomposition given beside an ensemble must not be dropped silently
        a, b = self._decomp(14), self._decomp(15)
        with pytest.raises(ValidationError, match="not both"):
            stats_from_decomp(a, ensemble=[b])

    def test_generator_ensemble_is_reduced_one_member_at_a_time(self):
        bases = [self._decomp(seed) for seed in (20, 21, 22)]
        refs = []

        def members():
            for k in range(6):
                # a fresh copy, so only the reduction can keep it alive
                member = dataclasses.replace(bases[k % 3])
                alive = {i for i, r in enumerate(refs) if r() is not None}
                assert alive <= {k - 1}, (k, alive)
                refs.append(weakref.ref(member))
                yield member
                del member

        streamed = stats_from_decomp(None, ensemble=members())
        listed = stats_from_decomp(None, ensemble=[bases[k % 3] for k in range(6)])
        assert streamed.ensemble_size == listed.ensemble_size == 6
        for name in ("lsf", "scattering", "path_gain"):
            np.testing.assert_array_equal(getattr(streamed, name), getattr(listed, name))
        assert streamed.total_gain == listed.total_gain


def two_phase_channel(l_t=16):
    """Spatial correlation flips to an orthogonal structure at l_t/2."""
    vals = np.zeros((2, 2, l_t, 1), dtype=complex)
    vals[0, 0, : l_t // 2, 0] = 1.0
    vals[1, 1, l_t // 2 :, 0] = 1.0
    return ImpulseResponse4D(vals)


class TestCmd:
    def test_constant_channel_zero_distance(self):
        h = chan(22, doppler_max=0.0, users=2, tx_antennas=2, time_symbols=16)
        assert cmd(h, side="tx", window=4).max() <= 1e-12

    def test_distances_bounded_and_zero_diagonal(self):
        h = chan(23, users=2, tx_antennas=2, time_symbols=24, doppler_max=0.2)
        for side in ("tx", "rx"):
            d = cmd(h, side=side, window=6)
            assert d.min() >= 0.0 and d.max() <= 1.0
            assert np.abs(np.diag(d)).max() <= 1e-14
            np.testing.assert_allclose(d, d.T, atol=1e-14)

    def test_orthogonal_phases_reach_distance_one(self):
        d = cmd(two_phase_channel(), side="tx", window=4)
        # windows fully inside opposite halves share no correlation structure
        assert d[0, 12] == pytest.approx(1.0, abs=1e-12)
        assert d[0, 2] <= 1e-12

    @pytest.mark.parametrize("window", [2, 5, 16])
    def test_returns_one_row_and_column_per_window_start(self, window):
        d = cmd(chan(25, users=2, tx_antennas=2, time_symbols=16), window=window)
        n = 16 - window + 1
        assert d.shape == (n, n) and d.dtype == np.float64
        assert d.flags.c_contiguous and not d.flags.writeable

    def test_parameter_validation(self):
        h = chan(24, users=2, tx_antennas=2, time_symbols=16)
        with pytest.raises(ValidationError):
            cmd(h, side="sideways")
        with pytest.raises(ValidationError):
            cmd(h, window=1)
        with pytest.raises(ValidationError):
            cmd(h, window=99)

    @pytest.mark.parametrize("side", ["tx", "rx"])
    @pytest.mark.parametrize("window", [2, 8, 33])
    @pytest.mark.parametrize("name", ["switch", "drift"])
    def test_row_blocks_equal_the_one_shot_formula(self, name, window, side):
        # the 4x4x2048 channel fills 2041 (window 8) rows in 32 blocks of
        # 63 or 64 rows; the 3x2x300 one fits one block
        h = CMD_CHANNELS[name]()
        got = cmd(h, side=side, window=window)
        flat = _window_correlations(h, side, window)
        norms = np.linalg.norm(flat, axis=1)
        tiny = np.finfo(float).tiny
        gram = np.real(flat @ np.conj(flat.T))
        want = np.clip(1 - gram / np.maximum(np.outer(norms, norms), tiny), 0, 1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("side", ["tx", "rx"])
    def test_matches_a_per_window_loop_oracle(self, side):
        h = CMD_CHANNELS["drift"]()
        window = 33
        mats = h.values.sum(axis=3)  # (L_u, L_u', L_t)
        k = mats.shape[1] if side == "tx" else mats.shape[0]
        corr = []
        for i in range(h.dims[2] - window + 1):
            r = np.zeros((k, k), dtype=complex)
            for t in range(i, i + window):
                m = mats[:, :, t]
                r += m.T @ m.conj() if side == "tx" else m @ m.conj().T
            corr.append(r / window)
        n = len(corr)
        want = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                inner = np.real(np.vdot(corr[j], corr[i]))
                want[i, j] = 1 - inner / (np.linalg.norm(corr[i]) * np.linalg.norm(corr[j]))
        got = cmd(h, side=side, window=window)
        np.testing.assert_allclose(got, np.clip(want, 0, 1), rtol=0, atol=1e-12)

    def test_peak_memory_is_bounded_by_the_result(self):
        # the row blocks hold a few rows of Gram and norm products at a time;
        # a full complex Gram matrix alone is twice the result
        h = CMD_CHANNELS["switch"]()
        cmd(h, side="tx", window=8)
        tracemalloc.start()
        try:
            out = cmd(h, side="tx", window=8).nbytes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == 8 * 2041**2
        assert peak <= 1.25 * out, (peak, out)


CMD_CHANNELS = {
    # the benchmark's stats_ensemble switch channel, and a drifting one
    "switch": lambda: generate_channel(ScenarioConfig(
        users=4, tx_antennas=4, time_symbols=2048, min_delay_taps=2,
        max_delay_taps=2, mode="block", block_len=256, doppler_max=0.0,
    ), 4242),
    "drift": lambda: generate_channel(ScenarioConfig(
        users=3, tx_antennas=2, time_symbols=300, max_delay_taps=3, mode="drift",
        doppler_max=0.05, doppler_drift=0.001,
    ), 7),
}


class TestStationarityInterval:
    def test_hand_built_run_structure(self):
        # 6 starts, a clean break between the first 3 and the last 3
        d = np.zeros((6, 6))
        d[:3, 3:] = 0.9
        d[3:, :3] = 0.9
        rep = stationarity_interval(d, d0=0.2)
        np.testing.assert_array_equal(rep.intervals, [3, 3, 3, 3, 3, 3])

    def test_run_stops_at_first_violation(self):
        d = np.zeros((5, 5))
        d[0, 2] = 0.5  # start 0 can only extend one step forward
        d[2, 0] = 0.5
        rep = stationarity_interval(d, d0=0.2)
        assert rep.intervals[0] == 2
        # start 1 still sees d[1, j] = 0 everywhere, full span
        assert rep.intervals[1] == 5

    def test_threshold_validation(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValidationError):
            stationarity_interval(d, d0=0.0)
        with pytest.raises(ValidationError):
            stationarity_interval(d, d0=1.5)

    def test_two_phase_channel_interval(self):
        d = cmd(two_phase_channel(), side="tx", window=4)
        rep = stationarity_interval(d, d0=0.2)
        # 13 starts; the first windows stay coherent until the straddling
        # windows push the distance over the threshold
        assert rep.intervals[0] < d.shape[0]
        assert rep.intervals.min() >= 1

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop_oracle_on_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        d0 = float(rng.choice([0.2, 0.5, 1.0]))
        d = rng.uniform(0.0, 1.0, size=(n, n))
        d[rng.uniform(size=(n, n)) < 0.3] = d0  # an entry at d0 ends a run
        d[rng.uniform(size=n) < 0.2] = 0.5 * d0  # rows wholly below d0
        d[rng.uniform(size=n) < 0.2] = d0  # rows wholly at d0
        d[rng.uniform(size=n) < 0.2] = 1.0  # rows wholly at or above d0
        got = stationarity_interval(d, d0).intervals
        np.testing.assert_array_equal(got, loop_intervals(d, d0))

    def test_matches_loop_oracle_on_block_switching_channel(self):
        # the benchmark's stats_ensemble switch channel: 4x4x2048, blocks of 256
        cfg = ScenarioConfig(
            users=4, tx_antennas=4, time_symbols=2048, min_delay_taps=2,
            max_delay_taps=2, mode="block", block_len=256, doppler_max=0.0,
        )
        d = cmd(generate_channel(cfg, 4242), side="tx", window=8)
        got = stationarity_interval(d, 0.2).intervals
        np.testing.assert_array_equal(got, loop_intervals(d, 0.2))
        assert got.min() < got.max()  # the blocks do break the runs

    def test_keeps_the_frozen_matrix_of_cmd(self):
        # cmd's frozen result passes the distances check without a copy; a
        # writeable matrix is copied, which shows that a copy would be seen
        d = cmd(CMD_CHANNELS["switch"](), side="tx", window=8)
        for distances, copied in ((d, False), (d.copy(), True)):
            tracemalloc.start()
            try:
                stationarity_interval(distances, 0.2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (peak >= d.nbytes) == copied, (peak, d.nbytes)


def loop_intervals(d, d0):
    """Reference: per start, walk forward and backward while d < d0."""
    n = d.shape[0]
    intervals = np.empty(n, dtype=int)
    for i in range(n):
        fwd = 0
        for j in range(i + 1, n):
            if d[i, j] < d0:
                fwd += 1
            else:
                break
        bwd = 0
        for j in range(i - 1, -1, -1):
            if d[i, j] < d0:
                bwd += 1
            else:
                break
        intervals[i] = fwd + bwd + 1
    return intervals
