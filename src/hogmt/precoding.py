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

For a fixed channel every precoder is one linear map on data grids, built
once by :func:`hogmt_map`, :func:`zf_map` or :func:`zfdpc_map` and applied
to any stack of grids; the ``*_precode`` functions apply it to one grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ImpulseResponse4D, SpaceTimeSignal, _instant_matrices
from .errors import (
    DegenerateChannelError,
    DimensionMismatchError,
    NumericalError,
)
from .kernels import (
    EigenDecomposition,
    _floor_count,
    checked_array,
    checked_int,
    checked_real,
    ensure_grid,
)

__all__ = [
    "CoefficientSet",
    "EnergyReport",
    "ModeMap",
    "InstantMap",
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
    """Per-mode precoding coefficients and data projections.

    ``x_coeffs[n] * sigma_n == s_coeffs[n]`` for every retained mode;
    ``dropped_energy`` is the summed squared projection magnitude of the
    modes excluded by truncation or the sigma floor, which upper-bounds the
    energy of the unreconstructed part of the data grid.
    """

    x_coeffs: np.ndarray
    s_coeffs: np.ndarray
    retained: int
    dropped_energy: float

    def __post_init__(self):
        x = checked_array(self.x_coeffs, 1, "CoefficientSet.x_coeffs")
        s = checked_array(self.s_coeffs, 1, "CoefficientSet.s_coeffs")
        if x.size != s.size:
            raise DimensionMismatchError(
                f"coefficient arrays must have equal length, got {x.size} and {s.size}"
            )
        retained = checked_int(self.retained, "CoefficientSet.retained", ge=0)
        if x.size != retained:
            raise DimensionMismatchError(
                f"retained count {retained} does not match coefficient "
                f"length {x.size}"
            )
        dropped = checked_real(self.dropped_energy, "CoefficientSet.dropped_energy", ge=0)
        object.__setattr__(self, "x_coeffs", x)
        object.__setattr__(self, "s_coeffs", s)
        object.__setattr__(self, "retained", retained)
        object.__setattr__(self, "dropped_energy", dropped)


@dataclass(frozen=True)
class EnergyReport:
    """Per-mode energy accounting of a precoding operation.

    For each retained mode: ``gains`` are the squared singular values,
    ``cost_energy[n] = |x_n|^2`` is what the transmitter spends and
    ``cancelled_energy[n] = |s_n|^2`` is what arrives, related by
    cost * gain = cancelled.  Cumulative curves are normalized to end at 1
    (or stay at 0 for an all-zero quantity).
    """

    gains: np.ndarray
    cost_energy: np.ndarray
    cancelled_energy: np.ndarray
    cum_gain: np.ndarray
    cum_cost: np.ndarray
    cum_cancelled: np.ndarray
    total_tx_energy: float
    dropped_energy: float


def _cumulative_normalized(values: np.ndarray) -> np.ndarray:
    total = float(values.sum())
    if total <= 0.0:
        return np.zeros_like(values)
    return np.cumsum(values) / total


@dataclass(frozen=True)
class ModeMap:
    """hogmt(f) of one channel: x = conj(Phi_k)^T diag(1/sigma_k) conj(Psi_k) s.

    Applied factor by factor over the k retained modes (flattened views of
    the decomposition, shape (k, N)), so no N x N map and no conjugated
    copy of the eigenfunctions is ever formed.
    """

    psis: np.ndarray
    phis: np.ndarray
    sigmas: np.ndarray
    out_dims: tuple[int, int]

    def apply(self, grids: np.ndarray) -> np.ndarray:
        """Precode a stack of data grids (..., L_u, L_t) -> (..., L_u', L_t')."""
        flat = grids.reshape(grids.shape[:-2] + (-1,))
        x_coeffs = np.conj(np.conj(flat) @ self.psis.T) / self.sigmas
        x = np.conj(np.conj(x_coeffs) @ self.phis)
        return x.reshape(grids.shape[:-2] + self.out_dims)


def retained_count(sigmas: np.ndarray, fraction: float) -> int:
    """Modes hogmt(fraction) keeps: min(#{sigma >= floor sigma_1}, ceil(fraction n))."""
    fraction = checked_real(fraction, "fraction", **_FRACTION_RANGE)
    sigmas = np.asarray(sigmas, dtype=float)
    return min(
        _floor_count(sigmas, DEFAULT_SIGMA_FLOOR_REL), math.ceil(fraction * sigmas.size)
    )


def hogmt_map(decomp: EigenDecomposition, fraction: float = 1.0) -> ModeMap:
    """hogmt(fraction) of one channel; no retained mode means a degenerate channel."""
    n_keep = retained_count(decomp.sigmas, fraction)
    if n_keep == 0:
        raise DegenerateChannelError(
            "every mode falls below the singular-value floor "
            f"(largest sigma = {decomp.sigmas[0] if decomp.n_modes else 0.0})"
        )
    return ModeMap(
        psis=decomp.psis[:n_keep].reshape(n_keep, -1),
        phis=decomp.phis[:n_keep].reshape(n_keep, -1),
        sigmas=decomp.sigmas[:n_keep],
        out_dims=decomp.source_dims[2:],
    )


def hogmt_precode(
    decomp: EigenDecomposition,
    s: SpaceTimeSignal | np.ndarray,
    fraction: float = 1.0,
) -> tuple[SpaceTimeSignal, CoefficientSet]:
    """Precode a data grid through a channel decomposition.

    x = sum over retained modes of (<s, psi_n> / sigma_n) * conj(phi_n),
    with <a, b> conjugating the second argument.  Retention is that of
    :func:`hogmt_map`.
    """
    grid = ensure_grid(s, "data signal", decomp.source_dims[:2])
    pmap = hogmt_map(decomp, fraction)
    n_keep = pmap.sigmas.size
    # projections on all modes; the tail beyond n_keep is only reported
    proj = np.conj(decomp.psis.reshape(decomp.n_modes, -1) @ np.conj(grid.ravel()))
    coeffs = CoefficientSet(
        x_coeffs=proj[:n_keep] / pmap.sigmas,
        s_coeffs=proj[:n_keep],
        retained=n_keep,
        dropped_energy=float(np.sum(np.abs(proj[n_keep:]) ** 2)),
    )
    return SpaceTimeSignal(grid=pmap.apply(grid)), coeffs


def energy_report(decomp: EigenDecomposition, coeffs: CoefficientSet) -> EnergyReport:
    """Energy accounting for a coefficient set produced by :func:`hogmt_precode`."""
    n = coeffs.retained
    if n > decomp.n_modes:
        raise DimensionMismatchError(
            f"coefficient set retains {n} modes but the decomposition has "
            f"only {decomp.n_modes}"
        )
    gains = decomp.lambdas[:n]
    cost = np.abs(coeffs.x_coeffs) ** 2
    cancelled = np.abs(coeffs.s_coeffs) ** 2
    return EnergyReport(
        gains=gains,
        cost_energy=cost,
        cancelled_energy=cancelled,
        cum_gain=_cumulative_normalized(gains),
        cum_cost=_cumulative_normalized(cost),
        cum_cancelled=_cumulative_normalized(cancelled),
        total_tx_energy=float(cost.sum()),
        dropped_energy=coeffs.dropped_energy,
    )


@dataclass(frozen=True)
class InstantMap:
    """A per-time-instant baseline of one channel: x(:, t) = mats[t] s(:, t)."""

    mats: np.ndarray  # (L_t, L_u', L_u)

    def apply(self, grids: np.ndarray) -> np.ndarray:
        """Precode a stack of data grids (..., L_u, L_t) -> (..., L_u', L_t)."""
        lead, (l_u, l_t) = grids.shape[:-2], grids.shape[-2:]
        cols = grids.reshape(-1, l_u, l_t).transpose(2, 1, 0)  # (L_t, L_u, batch)
        x = (self.mats @ cols).transpose(2, 1, 0)
        return x.reshape(lead + x.shape[1:])


def zf_map(h: ImpulseResponse4D) -> InstantMap:
    """Per-instant spatial zero-forcing baseline.

    Inverts the tap-summed matrix at each time symbol (pseudo-inverse when
    singular, with a warning).  Delay taps are ignored, so temporal and
    joint interference pass through untouched.
    """
    mats = _instant_matrices(h)
    ranks = np.linalg.matrix_rank(mats)
    deficient = int(np.count_nonzero(ranks < min(mats.shape[1:])))
    if deficient:
        warnings.warn(
            f"{deficient} of {mats.shape[0]} per-instant matrices are "
            "rank-deficient; pseudo-inverse used",
            stacklevel=2,
        )
    return InstantMap(np.linalg.pinv(mats))


def zfdpc_map(h: ImpulseResponse4D) -> InstantMap:
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
    return InstantMap(q @ np.conj(np.swapaxes(np.linalg.inv(r), 1, 2)))


def zf_precode_instant(
    h: ImpulseResponse4D, s: SpaceTimeSignal | np.ndarray
) -> SpaceTimeSignal:
    """Per-instant spatial zero-forcing baseline (see :func:`zf_map`) on one grid."""
    grid = ensure_grid(s, "data signal", (h.dims[0], h.dims[2]))
    return SpaceTimeSignal(grid=zf_map(h).apply(grid))


def zfdpc_precode(
    h: ImpulseResponse4D, s: SpaceTimeSignal | np.ndarray
) -> SpaceTimeSignal:
    """Per-instant dirty-paper baseline (see :func:`zfdpc_map`) on one grid."""
    grid = ensure_grid(s, "data signal", (h.dims[0], h.dims[2]))
    return SpaceTimeSignal(grid=zfdpc_map(h).apply(grid))
