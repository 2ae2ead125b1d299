"""Tests for the decomposition core: flattening, SVD pairs, truncation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hogmt import (
    EigenDecomposition,
    Kernel4D,
    apply_kernel,
    decompose_grid_pairs,
    duality_residual,
    flatten_kernel,
    hogmt_decompose,
    reconstruct,
)
from hogmt.errors import DimensionMismatchError, ValidationError
from hogmt.precoding import retained_count


def random_kernel(rng, dims):
    vals = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return Kernel4D(vals)


class TestFlattenKernel:
    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(7)
        dims = (2, 3, 4, 3)
        kern = random_kernel(rng, dims)
        flat = flatten_kernel(kern)
        l_u, l_t, l_up, _ = dims
        assert flat.shape == (l_u * l_t, l_up * l_t)
        # independent quadruple loop over every entry
        for u in range(l_u):
            for t in range(l_t):
                for up in range(l_up):
                    for tp in range(l_t):
                        assert flat[u * l_t + t, up * l_t + tp] == kern.values[u, t, up, tp]


class TestKernel4DValidation:
    def test_rejects_non_4d(self):
        with pytest.raises(ValidationError):
            Kernel4D(np.zeros((2, 2, 2), dtype=complex))

    def test_rejects_mismatched_time_axes(self):
        with pytest.raises(ValidationError):
            Kernel4D(np.zeros((2, 3, 2, 4), dtype=complex))

    def test_rejects_non_finite(self):
        vals = np.zeros((1, 2, 1, 2), dtype=complex)
        vals[0, 0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            Kernel4D(vals)

    def test_frob_norm(self):
        rng = np.random.default_rng(3)
        kern = random_kernel(rng, (2, 3, 2, 3))
        assert kern.frob_norm == pytest.approx(np.linalg.norm(kern.values))

    def test_values_are_frozen(self):
        kern = Kernel4D(np.zeros((1, 2, 1, 2), dtype=complex))
        with pytest.raises(ValueError):
            kern.values[0, 0, 0, 0] = 1.0


class TestDecomposition:
    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        kern = random_kernel(rng, (3, 6, 2, 6))
        dec = hogmt_decompose(kern)
        rec = reconstruct(dec)
        err = np.linalg.norm(rec.values - kern.values) / kern.frob_norm
        assert err <= 1e-12, f"reconstruction error {err}"

        n = dec.n_modes
        psi_flat = dec.psis.reshape(n, -1)
        phi_flat = dec.phis.reshape(n, -1)
        gram_psi = psi_flat @ psi_flat.conj().T
        gram_phi = phi_flat @ phi_flat.conj().T
        assert np.abs(gram_psi - np.eye(n)).max() <= 1e-12
        assert np.abs(gram_phi - np.eye(n)).max() <= 1e-12

    def test_duality(self):
        # feeding the conjugated output-side function through the kernel
        # must return sigma times the input-side function, mode by mode
        rng = np.random.default_rng(12)
        kern = random_kernel(rng, (2, 5, 3, 5))
        dec = hogmt_decompose(kern)
        assert duality_residual(kern, dec) <= 1e-12
        for nmode in (0, dec.n_modes // 2, dec.n_modes - 1):
            probe = np.conj(dec.phis[nmode])
            out = apply_kernel(kern, probe)
            target = dec.sigmas[nmode] * dec.psis[nmode]
            assert np.abs(out - target).max() <= 1e-10 * dec.sigmas[0]

    def test_sigmas_descending_and_lambdas(self):
        rng = np.random.default_rng(13)
        dec = hogmt_decompose(random_kernel(rng, (2, 4, 2, 4)))
        assert np.all(np.diff(dec.sigmas) <= 0)
        np.testing.assert_allclose(dec.lambdas, dec.sigmas**2, rtol=0, atol=0)

    def test_phase_convention(self):
        # the largest-magnitude entry of each output-side function is rotated
        # onto the positive real axis, which pins the joint phase of the pair
        rng = np.random.default_rng(14)
        for dims in [(2, 4, 2, 4), (4, 12, 4, 12)]:
            kern = random_kernel(rng, dims)
            dec = hogmt_decompose(kern)
            for n in range(dec.n_modes):
                flat = dec.psis[n].ravel()
                peak = flat[np.argmax(np.abs(flat))]
                assert abs(peak.imag) <= 1e-12 * abs(peak)
                assert peak.real > 0
            # oracle: the same rotation applied one mode at a time
            u, _, vh = np.linalg.svd(flatten_kernel(kern), full_matrices=False)
            for n in range(u.shape[1]):
                col = u[:, n]
                a = col[np.argmax(np.abs(col))]
                rot = np.conj(a) / np.abs(a)
                u[:, n] = col * rot
                vh[n, :] = vh[n, :] * np.conj(rot)
            np.testing.assert_array_equal(dec.psis, u.T.reshape(dec.psis.shape))
            np.testing.assert_array_equal(dec.phis, vh.reshape(dec.phis.shape))

    def test_energy_sum_matches_frobenius(self):
        rng = np.random.default_rng(15)
        kern = random_kernel(rng, (3, 4, 3, 4))
        dec = hogmt_decompose(kern)
        assert np.sum(dec.sigmas**2) == pytest.approx(kern.frob_norm**2, rel=1e-12)

    def test_decompose_rank_one(self):
        a = np.zeros((1, 3, 1, 3), dtype=complex)
        a[0, :, 0, :] = np.outer([1, 2j, -1], [1, 1, 1])
        dec = hogmt_decompose(Kernel4D(a))
        assert dec.n_modes == 1
        rec = reconstruct(dec)
        assert np.abs(rec.values - a).max() <= 1e-12 * np.abs(a).max()

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        cols=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_grid_pairs_property(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        shape = rows + cols
        mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dec = decompose_grid_pairs(mat)
        rec = np.einsum("n,nab,ncd->abcd", dec.sigmas, dec.psis, dec.phis)
        scale = max(np.linalg.norm(mat), 1e-30)
        assert np.linalg.norm(rec - mat) / scale <= 1e-10

    def test_grid_pairs_rejects_flat_and_non_finite(self):
        with pytest.raises(ValidationError, match="4-D"):
            decompose_grid_pairs(np.eye(4, dtype=complex))
        bad = np.ones((1, 2, 1, 2), dtype=complex)
        bad[0, 1, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            decompose_grid_pairs(bad)

    @pytest.mark.parametrize("shape", [(0, 2, 0, 2), (2, 2, 0, 2)])
    def test_grid_pairs_rejects_an_empty_dim(self, shape):
        with pytest.raises(ValidationError, match="^operator must have all dims >= 1"):
            decompose_grid_pairs(np.zeros(shape, dtype=complex))


class TestApplyKernel:
    def test_matches_flat_matvec(self):
        rng = np.random.default_rng(21)
        kern = random_kernel(rng, (3, 4, 2, 4))
        x = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        out = apply_kernel(kern, x)
        flat = flatten_kernel(kern) @ x.ravel()
        np.testing.assert_allclose(out.ravel(), flat, rtol=1e-13, atol=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(22)
        kern = random_kernel(rng, (2, 3, 2, 3))
        x1 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        x2 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        lhs = apply_kernel(kern, 2.0 * x1 - 1j * x2)
        rhs = 2.0 * apply_kernel(kern, x1) - 1j * apply_kernel(kern, x2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_dimension_check(self):
        rng = np.random.default_rng(23)
        kern = random_kernel(rng, (2, 3, 2, 3))
        with pytest.raises(DimensionMismatchError):
            apply_kernel(kern, np.zeros((3, 3), dtype=complex))


class TestTruncationPolicy:
    """The retention rules: precoding.retained_count and the decomposition floor."""

    def test_full_keeps_all(self):
        sigmas = np.array([4.0, 3.0, 2.0, 1.0])
        assert retained_count(sigmas, 1.0) == 4

    def test_fraction_uses_ceiling(self):
        sigmas = np.linspace(7, 1, 7)
        assert retained_count(sigmas, 0.5) == 4
        assert retained_count(sigmas, 1.0) == 7
        # 0.99 of 48 rounds up to all 48; of 128 it drops exactly one
        assert retained_count(np.linspace(48, 1, 48), 0.99) == 48
        assert retained_count(np.linspace(128, 1, 128), 0.99) == 127

    def test_caller_floor_combines_with_policy(self):
        # min(modes at or above 1e-10 * sigma_1, ceil(fraction * n))
        sigmas = np.array([1.0, 1e-3, 1e-9, 1e-10, 1e-11])
        assert retained_count(sigmas, 1.0) == 4  # the floor binds
        assert retained_count(sigmas, 0.5) == 3  # the fraction binds
        assert retained_count(sigmas, 0.1) == 1
        assert retained_count(np.zeros(3), 1.0) == 0
        assert retained_count(np.empty(0), 1.0) == 0

    def test_invalid_inputs(self):
        for bad in (0.0, -0.5, 1.5, 1.0000001, np.nan, np.inf):
            with pytest.raises(ValidationError, match="fraction"):
                retained_count(np.ones(3), bad)

    def test_decomposition_floor(self):
        # a mode at 1e-13 * sigma_1 is dropped, one at 1e-11 * sigma_1 kept
        mat = np.diag([2.0, 2e-11, 2e-13]).astype(complex)
        dec = decompose_grid_pairs(mat.reshape(1, 3, 1, 3))
        np.testing.assert_allclose(dec.sigmas, [2.0, 2e-11], rtol=1e-12)
        assert decompose_grid_pairs(np.zeros((1, 3, 1, 3))).n_modes == 0
        assert hogmt_decompose(Kernel4D(np.zeros((2, 3, 2, 3)))).n_modes == 0


class TestEigenDecompositionValidation:
    def test_rejects_unsorted_sigmas(self):
        n, shape = 2, (1, 2)
        psis = np.zeros((n,) + shape, dtype=complex)
        psis[:, 0, 0] = 1.0
        with pytest.raises(ValidationError):
            EigenDecomposition(
                sigmas=np.array([1.0, 2.0]),
                psis=psis,
                phis=psis.copy(),
                source_dims=(1, 2, 1, 2),
            )

    def test_rejects_shape_mismatch(self):
        psis = np.zeros((2, 1, 2), dtype=complex)
        phis = np.zeros((2, 1, 3), dtype=complex)
        psis[:, 0, 0] = 1.0
        phis[:, 0, 0] = 1.0
        with pytest.raises(ValidationError):
            EigenDecomposition(
                sigmas=np.array([2.0, 1.0]),
                psis=psis,
                phis=phis,
                source_dims=(1, 2, 1, 2),
            )


class TestReconstructShapes:
    def test_non_kernel_lattice_rejected(self):
        # decompositions over a lattice whose column time-axis differs from
        # the row time-axis cannot be packed back into a channel kernel
        rng = np.random.default_rng(41)
        mat = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
        dec = decompose_grid_pairs(mat.reshape(2, 3, 2, 4))
        with pytest.raises(DimensionMismatchError):
            reconstruct(dec)
