"""Precoders: eigenfunction-domain interference cancellation plus baselines.

The main precoder projects the data grid onto the receive-side eigenfunctions
of a channel decomposition, divides by the singular values, and resynthesizes
on the conjugated transmit-side eigenfunctions.  Sent through the channel,
each mode arrives flat-faded, so the receiver sees the data grid itself with
no spatial, temporal, or joint interference (up to truncated modes).

Two per-time-instant baselines are included for comparison: plain spatial
zero-forcing and QR-based zero-forcing dirty-paper coding.  Both ignore the
delay dimension, so they cancel only spatial interference.  Without a
modulo lattice the dirty-paper pre-subtraction is linear, and on square
full-rank instants Q R^-H is exactly H(t)^-1: its output equals per-instant
zero-forcing up to rounding.  Both are kept as the two named baselines.

For a fixed channel every precoder is one complex matrix P of shape
(L_u'*L_t, L_u*L_t) on row-major flattened data grids, x = P @ s, built by
:func:`hogmt_map`, :func:`zf_map` or :func:`zfdpc_map` (the baselines put
their per-instant matrices on the time diagonal, a one-tap banded operator);
the ``*_precode`` functions precode one grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import ImpulseResponse4D, SpaceTimeSignal, _instant_matrices
from .errors import (
    DegenerateChannelError,
    DimensionMismatchError,
    NumericalError,
)
from .kernels import (
    EigenDecomposition,
    _banded,
    _floor_count,
    checked_fields,
    checked_real,
    ensure_grid,
)

__all__ = [
    "CoefficientSet",
    "retained_count",
    "hogmt_map",
    "zf_map",
    "zfdpc_map",
    "hogmt_precode",
    "energy_report",
    "zf_precode_instant",
    "zfdpc_precode",
    "DEFAULT_SIGMA_FLOOR_REL",
]

# Modes with sigma_n below this fraction of sigma_1 are never inverted;
# their projected energy is reported instead of being amplified.
DEFAULT_SIGMA_FLOOR_REL = 1e-10

# hogmt(f) retains a fraction f in (0, 1] of the modes
_FRACTION_RANGE = {"gt": 0, "le": 1}


@dataclass(frozen=True)
class CoefficientSet:
    """Per-mode precoding coefficients and data projections: the precode output.

    ``x_coeffs[n] * sigma_n == s_coeffs[n]`` for every retained mode, so
    their length is the retained mode count; ``dropped_energy`` is the
    summed squared projection magnitude of the modes excluded by truncation
    or the sigma floor, which upper-bounds the energy of the unreconstructed
    part of the data grid.
    """

    x_coeffs: np.ndarray = field(metadata={"ndim": 1})
    s_coeffs: np.ndarray = field(metadata={"ndim": 1})
    dropped_energy: float = field(metadata={"ge": 0})

    def __post_init__(self):
        checked_fields(self)
        n_x, n_s = self.x_coeffs.size, self.s_coeffs.size
        if n_x != n_s:
            raise DimensionMismatchError(
                f"coefficient arrays must have equal length, got {n_x} and {n_s}"
            )


def retained_count(sigmas: np.ndarray, fraction: float) -> int:
    """Modes hogmt(fraction) keeps: min(#{sigma >= floor sigma_1}, ceil(fraction n))."""
    fraction = checked_real(fraction, "fraction", **_FRACTION_RANGE)
    sigmas = np.asarray(sigmas, dtype=float)
    return min(
        _floor_count(sigmas, DEFAULT_SIGMA_FLOOR_REL), math.ceil(fraction * sigmas.size)
    )


def _retained(decomp: EigenDecomposition, fraction: float) -> int:
    """Modes hogmt(fraction) keeps on one channel; none kept means a degenerate channel."""
    n_keep = retained_count(decomp.sigmas, fraction)
    if n_keep == 0:
        raise DegenerateChannelError(
            "every mode falls below the singular-value floor "
            f"(largest sigma = {decomp.sigmas[0] if decomp.n_modes else 0.0})"
        )
    return n_keep


def hogmt_map(decomp: EigenDecomposition, fraction: float = 1.0) -> np.ndarray:
    """hogmt(fraction) of one channel: P = conj(Phi_k)^T diag(1/sigma_k) conj(Psi_k).

    Phi_k and Psi_k are the k retained modes' eigenfunctions flattened to
    rows, so P maps flattened data grids to flattened transmit grids.  It is
    formed as conj(Phi_k^T diag(1/sigma_k) Psi_k), with no conjugated copy
    of the eigenfunctions.
    """
    k = _retained(decomp, fraction)
    phis = decomp.phis[:k].reshape(k, -1)
    psis = decomp.psis[:k].reshape(k, -1)
    p = (phis.T / decomp.sigmas[:k]) @ psis
    return np.conj(p, out=p)


def hogmt_precode(
    decomp: EigenDecomposition, s: SpaceTimeSignal | np.ndarray, fraction: float = 1.0
) -> tuple[SpaceTimeSignal, CoefficientSet]:
    """Precode a data grid through a channel decomposition.

    x = sum over retained modes of (<s, psi_n> / sigma_n) * conj(phi_n),
    with <a, b> conjugating the second argument: the grid
    :func:`hogmt_map` gives, without forming its N x N matrix.
    """
    grid = ensure_grid(s, "data signal", decomp.source_dims[:2])
    n_keep = _retained(decomp, fraction)
    # projections on all modes; the tail beyond n_keep is only reported
    proj = np.conj(decomp.psis.reshape(decomp.n_modes, -1) @ np.conj(grid.ravel()))
    coeffs = CoefficientSet(
        x_coeffs=proj[:n_keep] / decomp.sigmas[:n_keep],
        s_coeffs=proj[:n_keep],
        dropped_energy=float(np.sum(np.abs(proj[n_keep:]) ** 2)),
    )
    x = np.conj(np.conj(coeffs.x_coeffs) @ decomp.phis[:n_keep].reshape(n_keep, -1))
    return SpaceTimeSignal(grid=x.reshape(decomp.source_dims[2:])), coeffs


def energy_report(decomp: EigenDecomposition, coeffs: CoefficientSet) -> tuple[np.ndarray, ...]:
    """Per retained mode of :func:`hogmt_precode`'s ``coeffs``: (gains, cost, cancelled).

    ``gains`` are the squared singular values, ``cost[n] = |x_n|^2`` is what
    the transmitter spends and ``cancelled[n] = |s_n|^2`` is what arrives,
    related by cost * gain = cancelled.
    """
    n = coeffs.x_coeffs.size
    if n > decomp.n_modes:
        raise DimensionMismatchError(
            f"coefficient set retains {n} modes but the decomposition has "
            f"only {decomp.n_modes}"
        )
    return decomp.lambdas[:n], np.abs(coeffs.x_coeffs) ** 2, np.abs(coeffs.s_coeffs) ** 2


def zf_map(h: ImpulseResponse4D) -> np.ndarray:
    """Per-instant spatial zero-forcing baseline.

    Inverts the tap-summed matrix at each time symbol (pseudo-inverse when
    singular, with a warning), from one SVD by ``np.linalg.pinv``'s formula
    and ``matrix_rank``'s tolerance.  Delay taps are ignored, so temporal
    and joint interference pass through untouched.
    """
    mats = _instant_matrices(h)
    l_t, l_u, l_up = mats.shape
    u, s, vt = np.linalg.svd(mats.conjugate(), full_matrices=False)
    top = s.max(axis=-1, keepdims=True)
    ranks = np.count_nonzero(s > top * (max(l_u, l_up) * np.finfo(float).eps), axis=-1)
    if deficient := int(np.count_nonzero(ranks < min(l_u, l_up))):
        warnings.warn(f"{deficient} of {l_t} per-instant matrices are rank-deficient; "
                      "pseudo-inverse used", stacklevel=2)
    s = np.divide(1, s, where=s > 1e-15 * top, out=np.zeros_like(s))
    pinv = np.swapaxes(vt, -1, -2) @ (s[..., np.newaxis] * np.swapaxes(u, -1, -2))
    return _banded(pinv[np.newaxis]).reshape(l_up * l_t, l_u * l_t)


def zfdpc_map(h: ImpulseResponse4D) -> np.ndarray:
    """Per-instant QR-based zero-forcing dirty-paper baseline.

    Factor the conjugate transpose of each instantaneous matrix as Q R, so
    the channel becomes lower-triangular in the encoding order.  Streams are
    encoded in natural order; each symbol pre-subtracts the interference of
    already-encoded streams and divides by the matching diagonal of R, which
    makes the spatial part arrive clean: x(t) = Q R^-H s(t).
    """
    mats = _instant_matrices(h)
    l_t, l_u, l_up = mats.shape
    if l_u != l_up:
        raise DimensionMismatchError(
            f"dirty-paper baseline needs square per-instant matrices, got "
            f"{l_u}x{l_up}"
        )
    q, r = np.linalg.qr(np.conj(np.swapaxes(mats, 1, 2)))
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    tol = l_u * np.finfo(float).eps * diag.max(axis=1, keepdims=True)
    bad = np.flatnonzero(np.any(diag <= tol, axis=1))
    if bad.size:
        raise NumericalError(
            f"rank-deficient instantaneous channel at time symbol {bad[0]}: "
            "zero diagonal in the QR factor"
        )
    blocks = q @ np.conj(np.swapaxes(np.linalg.inv(r), 1, 2))
    return _banded(blocks[np.newaxis]).reshape(l_u * l_t, l_u * l_t)


def zf_precode_instant(
    h: ImpulseResponse4D, s: SpaceTimeSignal | np.ndarray
) -> SpaceTimeSignal:
    """Per-instant spatial zero-forcing baseline (see :func:`zf_map`) on one grid."""
    grid = ensure_grid(s, "data signal", (h.dims[0], h.dims[2]))
    return SpaceTimeSignal(grid=(zf_map(h) @ grid.ravel()).reshape(h.dims[1:3]))


def zfdpc_precode(
    h: ImpulseResponse4D, s: SpaceTimeSignal | np.ndarray
) -> SpaceTimeSignal:
    """Per-instant dirty-paper baseline (see :func:`zfdpc_map`) on one grid."""
    grid = ensure_grid(s, "data signal", (h.dims[0], h.dims[2]))
    return SpaceTimeSignal(grid=(zfdpc_map(h) @ grid.ravel()).reshape(h.dims[1:3]))
