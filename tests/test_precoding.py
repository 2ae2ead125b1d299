"""Tests for eigenmode precoding, energy accounting and the two baselines."""

import numpy as np
import pytest

from hogmt import (
    CoefficientSet,
    EigenDecomposition,
    ImpulseResponse4D,
    Kernel4D,
    ScenarioConfig,
    SpaceTimeSignal,
    apply_kernel,
    energy_report,
    flatten_kernel,
    generate_channel,
    hogmt_decompose,
    hogmt_precode,
    to_kernel,
    zf_precode_instant,
    zfdpc_precode,
)
from hogmt.errors import (
    DegenerateChannelError,
    DimensionMismatchError,
    NumericalError,
)
from hogmt.cli import _cumulative_normalized
from hogmt.precoding import hogmt_map, retained_count, zf_map, zfdpc_map


def identity_kernel(l_u, l_t, scale=1.0):
    n = l_u * l_t
    return Kernel4D((scale * np.eye(n, dtype=complex)).reshape(l_u, l_t, l_u, l_t))


def random_signal(rng, dims):
    return SpaceTimeSignal(
        grid=rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    )


def qam16_like(rng, dims):
    levels = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
    re = rng.choice(levels, size=dims)
    im = rng.choice(levels, size=dims)
    return SpaceTimeSignal(grid=re + 1j * im)


class TestHogmtPrecode:
    def test_identity_channel_passthrough(self):
        rng = np.random.default_rng(1)
        dec = hogmt_decompose(identity_kernel(2, 3))
        s = random_signal(rng, (2, 3))
        x, coeffs = hogmt_precode(dec, s)
        np.testing.assert_allclose(x.grid, s.grid, rtol=0, atol=1e-12)
        assert coeffs.x_coeffs.size == 6
        assert coeffs.dropped_energy <= 1e-24

    def test_scaled_identity_divides_by_gain(self):
        rng = np.random.default_rng(2)
        dec = hogmt_decompose(identity_kernel(2, 3, scale=2.0))
        s = random_signal(rng, (2, 3))
        x, _ = hogmt_precode(dec, s)
        np.testing.assert_allclose(x.grid, s.grid / 2.0, rtol=0, atol=1e-12)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((2, 4, 2, 4)) + 1j * rng.standard_normal((2, 4, 2, 4))
        kern = Kernel4D(vals)
        dec = hogmt_decompose(kern)
        s = qam16_like(rng, (2, 4))
        x, _ = hogmt_precode(dec, s)
        x_ls, *_ = np.linalg.lstsq(flatten_kernel(kern), s.grid.ravel(), rcond=None)
        err = np.linalg.norm(x.grid.ravel() - x_ls) / np.linalg.norm(x_ls)
        assert err <= 1e-10, f"disagrees with flat least-squares solve by {err}"

    def test_received_signal_is_clean(self):
        # precode then push through the kernel: the data should come back
        rng = np.random.default_rng(4)
        cfg = ScenarioConfig(
            users=2, tx_antennas=2, time_symbols=12, min_delay_taps=2,
            max_delay_taps=2, mode="wssus", doppler_max=0.1, delay_decay=2.0,
        )
        kern = to_kernel(generate_channel(cfg, 11))
        dec = hogmt_decompose(kern)
        s = random_signal(rng, (2, 12))
        x, _ = hogmt_precode(dec, s)
        r = apply_kernel(kern, x)
        res = np.linalg.norm(r.grid - s.grid) / np.linalg.norm(s.grid)
        assert res <= 1e-8, f"received residual {res}"

    def test_coefficient_relation(self):
        rng = np.random.default_rng(5)
        vals = rng.standard_normal((2, 5, 2, 5)) + 1j * rng.standard_normal((2, 5, 2, 5))
        dec = hogmt_decompose(Kernel4D(vals))
        s = random_signal(rng, (2, 5))
        _, coeffs = hogmt_precode(dec, s)
        np.testing.assert_allclose(
            coeffs.x_coeffs * dec.sigmas[: coeffs.x_coeffs.size],
            coeffs.s_coeffs,
            rtol=1e-12,
            atol=1e-12,
        )

    def test_truncation_projections(self):
        rng = np.random.default_rng(6)
        vals = rng.standard_normal((2, 4, 2, 4)) + 1j * rng.standard_normal((2, 4, 2, 4))
        dec = hogmt_decompose(Kernel4D(vals))
        s = random_signal(rng, (2, 4))
        x, coeffs = hogmt_precode(dec, s, fraction=0.5)
        assert coeffs.x_coeffs.size == 4
        proj = np.einsum("ut,nut->n", s.grid, np.conj(dec.psis))
        tail = float(np.sum(np.abs(proj[4:]) ** 2))
        assert coeffs.dropped_energy == pytest.approx(tail, rel=1e-12)
        # transmitted signal only uses the retained input-side functions
        rebuilt = np.einsum("n,nut->ut", coeffs.x_coeffs, np.conj(dec.phis[:4]))
        np.testing.assert_allclose(x.grid, rebuilt, rtol=0, atol=1e-12)

    def test_sigma_floor_drops_weak_modes(self):
        # hand-built decomposition with a mode far below the default floor
        basis = np.eye(3, dtype=complex).reshape(3, 1, 3)
        dec = EigenDecomposition(
            sigmas=np.array([1.0, 1e-3, 1e-12]),
            psis=basis,
            phis=basis.copy(),
            source_dims=(1, 3, 1, 3),
        )
        s = SpaceTimeSignal(grid=np.array([[1.0, 2.0, 3.0]], dtype=complex))
        x, coeffs = hogmt_precode(dec, s)
        assert coeffs.x_coeffs.size == 2
        assert coeffs.dropped_energy == pytest.approx(9.0, rel=1e-12)
        np.testing.assert_allclose(x.grid, [[1.0, 2000.0, 0.0]], rtol=1e-12)

    def test_degenerate_channel_raises(self):
        dec = hogmt_decompose(Kernel4D(np.zeros((1, 3, 1, 3), dtype=complex)))
        s = SpaceTimeSignal(grid=np.ones((1, 3), dtype=complex))
        with pytest.raises(DegenerateChannelError):
            hogmt_precode(dec, s)

    def test_dimension_mismatch_rejected(self):
        dec = hogmt_decompose(identity_kernel(2, 3))
        with pytest.raises(DimensionMismatchError):
            hogmt_precode(dec, SpaceTimeSignal(grid=np.ones((3, 3), dtype=complex)))


class TestCoefficientSet:
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.75, 1.0])
    def test_retained_counts_the_kept_modes(self, fraction):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((2, 4, 2, 4)) + 1j * rng.standard_normal((2, 4, 2, 4))
        dec = hogmt_decompose(Kernel4D(vals))
        _, coeffs = hogmt_precode(dec, random_signal(rng, (2, 4)), fraction)
        assert coeffs.x_coeffs.size == retained_count(dec.sigmas, fraction)
        assert coeffs.x_coeffs.size == coeffs.s_coeffs.size

    def test_retained_is_read_from_the_coefficients(self):
        # the retained count is the length of the coefficient arrays; it is
        # no field of its own
        coeffs = CoefficientSet(x_coeffs=[1j, 2j, 3j], s_coeffs=[1, 2, 3], dropped_energy=0)
        assert coeffs.x_coeffs.size == 3
        assert not hasattr(coeffs, "retained")
        with pytest.raises(TypeError, match="retained"):
            CoefficientSet(x_coeffs=[1j], s_coeffs=[1j], dropped_energy=0, retained=1)

    def test_coefficient_arrays_of_unequal_length_rejected(self):
        with pytest.raises(DimensionMismatchError, match="equal length, got 2 and 3"):
            CoefficientSet(x_coeffs=[1j, 2j], s_coeffs=[1, 2, 3], dropped_energy=0)


class TestEnergyReport:
    def test_identities(self):
        rng = np.random.default_rng(7)
        vals = rng.standard_normal((2, 6, 2, 6)) + 1j * rng.standard_normal((2, 6, 2, 6))
        dec = hogmt_decompose(Kernel4D(vals))
        s = random_signal(rng, (2, 6))
        x, coeffs = hogmt_precode(dec, s)
        gains, cost, cancelled = energy_report(dec, coeffs)
        n = coeffs.x_coeffs.size
        np.testing.assert_allclose(gains, dec.sigmas[:n] ** 2, rtol=1e-14)
        # spend * gain = delivered, mode by mode
        np.testing.assert_allclose(cost * gains, cancelled, rtol=1e-12, atol=1e-300)
        # the transmit-side functions are orthonormal: what the modes cost is
        # the energy of the transmitted grid
        assert cost.sum() == pytest.approx(np.sum(np.abs(x.grid) ** 2), rel=1e-12)

    def test_cumulative_curves(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal((1, 5, 1, 5)) + 1j * rng.standard_normal((1, 5, 1, 5))
        dec = hogmt_decompose(Kernel4D(vals))
        s = random_signal(rng, (1, 5))
        _, coeffs = hogmt_precode(dec, s)
        # the energy.csv columns cum_gain, cum_cost and cum_cancelled
        for values in energy_report(dec, coeffs):
            curve = _cumulative_normalized(values)
            assert np.all(np.diff(curve) >= -1e-15)
            assert curve[-1] == pytest.approx(1.0, rel=1e-12)

    def test_cumulative_curve_of_no_energy_stays_zero(self):
        # a zero data grid spends and delivers nothing: its energy.csv curves
        # read 0, not 0/0
        rng = np.random.default_rng(10)
        vals = rng.standard_normal((1, 5, 1, 5)) + 1j * rng.standard_normal((1, 5, 1, 5))
        dec = hogmt_decompose(Kernel4D(vals))
        _, coeffs = hogmt_precode(dec, np.zeros((1, 5), dtype=complex))
        _, cost, cancelled = energy_report(dec, coeffs)
        for values in (cost, cancelled):
            np.testing.assert_array_equal(_cumulative_normalized(values), np.zeros(5))

    def test_parseval_on_full_retention(self):
        rng = np.random.default_rng(9)
        vals = rng.standard_normal((2, 4, 2, 4)) + 1j * rng.standard_normal((2, 4, 2, 4))
        dec = hogmt_decompose(Kernel4D(vals))
        s = random_signal(rng, (2, 4))
        _, coeffs = hogmt_precode(dec, s)
        # the output-side functions form a complete basis here, so the
        # projections carry exactly the data energy
        assert float(np.sum(np.abs(coeffs.s_coeffs) ** 2)) == pytest.approx(
            np.sum(np.abs(s.grid) ** 2), rel=1e-12
        )


def single_tap_channel(seed=13, users=3):
    cfg = ScenarioConfig(
        users=users, tx_antennas=users, time_symbols=10, min_delay_taps=1,
        max_delay_taps=1, mode="wssus", doppler_max=0.1,
    )
    return generate_channel(cfg, seed)


class TestZfBaseline:
    def test_single_tap_exact(self):
        rng = np.random.default_rng(10)
        h = single_tap_channel()
        s = random_signal(rng, (3, 10))
        x = zf_precode_instant(h, s)
        r = apply_kernel(to_kernel(h), x)
        np.testing.assert_allclose(r.grid, s.grid, rtol=0, atol=1e-9)

    def test_delay_taps_leak_through(self):
        rng = np.random.default_rng(11)
        cfg = ScenarioConfig(
            users=2, tx_antennas=2, time_symbols=12, min_delay_taps=3,
            max_delay_taps=3, mode="wssus", doppler_max=0.1, delay_decay=0.5,
        )
        h = generate_channel(cfg, 12)
        s = random_signal(rng, (2, 12))
        r = apply_kernel(to_kernel(h), zf_precode_instant(h, s))
        res = np.linalg.norm(r.grid - s.grid) / np.linalg.norm(s.grid)
        assert res > 1e-2, "delayed taps must not be cancelled by the instant ZF"

    def test_rank_deficiency_warns(self):
        h = single_tap_channel(users=2)
        vals = h.values.copy()
        vals[:, :, 4, :] = 0.0
        broken = ImpulseResponse4D(vals)
        s = SpaceTimeSignal(grid=np.ones((2, 10), dtype=complex))
        with pytest.warns(UserWarning, match="rank-deficient"):
            zf_precode_instant(broken, s)


class TestZfDpcBaseline:
    def test_single_tap_exact(self):
        rng = np.random.default_rng(14)
        h = single_tap_channel(seed=15)
        s = random_signal(rng, (3, 10))
        x = zfdpc_precode(h, s)
        r = apply_kernel(to_kernel(h), x)
        np.testing.assert_allclose(r.grid, s.grid, rtol=0, atol=1e-9)

    def test_equals_zero_forcing_on_square_full_rank_instants(self):
        # without a modulo lattice, Q R^-H is H(t)^-1 itself
        rng = np.random.default_rng(16)
        h = generate_channel(
            ScenarioConfig(
                users=3, tx_antennas=3, time_symbols=10, min_delay_taps=3,
                max_delay_taps=3, mode="wssus", doppler_max=0.1,
            ),
            19,
        )
        s = random_signal(rng, (3, 10))
        np.testing.assert_allclose(
            zfdpc_precode(h, s).grid, zf_precode_instant(h, s).grid, rtol=1e-10, atol=0
        )

    def test_singular_instant_raises_with_time_index(self):
        h = single_tap_channel(users=2, seed=17)
        vals = h.values.copy()
        vals[:, :, 5, :] = 0.0
        broken = ImpulseResponse4D(vals)
        s = SpaceTimeSignal(grid=np.ones((2, 10), dtype=complex))
        with pytest.raises(NumericalError) as exc:
            zfdpc_precode(broken, s)
        assert "5" in str(exc.value)

    def test_non_square_rejected(self):
        cfg = ScenarioConfig(
            users=2, tx_antennas=3, time_symbols=8, min_delay_taps=1,
            max_delay_taps=1, mode="wssus", doppler_max=0.1,
        )
        h = generate_channel(cfg, 18)
        s = SpaceTimeSignal(grid=np.ones((3, 8), dtype=complex))
        with pytest.raises(DimensionMismatchError):
            zfdpc_precode(h, s)


def drift_channel(users, tx_antennas, seed):
    cfg = ScenarioConfig(
        users=users, tx_antennas=tx_antennas, time_symbols=6, min_delay_taps=2,
        max_delay_taps=2, mode="drift", doppler_max=0.1,
    )
    return generate_channel(cfg, seed)


def time_diagonal_oracle(h, block_of):
    """Dense (L_u'*L_t, L_u*L_t) map with block_of(H(t)) at each (t, t), and its mask."""
    l_u, l_up, l_t, _ = h.dims
    want = np.zeros((l_up, l_t, l_u, l_t), dtype=complex)
    mask = np.zeros(want.shape, dtype=bool)
    for t in range(l_t):
        want[:, t, :, t] = block_of(h.values[:, :, t, :].sum(axis=-1))
        mask[:, t, :, t] = True
    n_out, n_in = l_up * l_t, l_u * l_t
    return want.reshape(n_out, n_in), mask.reshape(n_out, n_in)


class TestMatrixForm:
    """Every precoder is one matrix P on flattened grids: x.ravel() = P @ s.ravel()."""

    @pytest.mark.parametrize("fraction", [0.5, 1.0])
    def test_hogmt_map_matches_precode(self, fraction):
        rng = np.random.default_rng(20)
        dec = hogmt_decompose(to_kernel(drift_channel(2, 3, 21)))
        s = random_signal(rng, (2, 6))
        x, coeffs = hogmt_precode(dec, s, fraction)
        p = hogmt_map(dec, fraction)
        assert p.shape == (3 * 6, 2 * 6) and x.grid.shape == (3, 6)
        assert coeffs.x_coeffs.size == (6 if fraction == 0.5 else 12)
        got = p @ s.grid.ravel()
        err = np.linalg.norm(got - x.grid.ravel()) / np.linalg.norm(x.grid)
        assert err <= 1e-12, f"matrix and projection routes differ by {err}"

    def test_zf_map_is_pinv_on_the_time_diagonal(self):
        # one SVD gives the rank and the pseudo-inverse, bit for bit np.linalg.pinv's
        h = drift_channel(2, 3, 22)
        blocks = iter(np.linalg.pinv(np.moveaxis(h.values.sum(axis=3), 2, 0)))
        want, _ = time_diagonal_oracle(h, lambda h_t: next(blocks))
        np.testing.assert_array_equal(zf_map(h), want)

    def test_zfdpc_map_is_q_r_inverse_on_the_time_diagonal(self):
        def block(h_t):
            q, r = np.linalg.qr(np.conj(h_t.T))
            return q @ np.conj(np.linalg.inv(r).T)

        h = drift_channel(3, 3, 23)
        want, mask = time_diagonal_oracle(h, block)
        got = zfdpc_map(h)
        assert got.shape == want.shape
        np.testing.assert_allclose(got[mask], want[mask], rtol=1e-12, atol=0)
        assert not np.any(got[~mask])
