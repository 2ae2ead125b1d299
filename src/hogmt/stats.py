"""Second-order channel statistics through the eigenfunction route.

The chain: per-pair impulse response -> time-frequency transfer grid ->
atomic kernel on the joint time-frequency x delay-Doppler lattice, windowed
by a GaussianPrototype -> SVD of that 4-D kernel by the channel kernel's
entry, ``kernels.decompose_grid_pairs`` -> correlation/scattering/path-gain
summaries built from the eigenvalues and eigenfunction grids alone.
Stationarity metrics (correlation matrix distance, stationarity interval)
operate directly on the impulse response.

Lattice conventions: the frequency grid is the DFT of the delay axis (size
L_tau) and the Doppler grid is the DFT of the time axis (size L_t), both in
normalized units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .channel import ImpulseResponse4D, _instant_matrices
from .errors import DimensionMismatchError, ValidationError
from .kernels import (
    EigenDecomposition,
    _freeze,
    checked_array,
    checked_fields,
    checked_int,
    checked_real,
    decompose_grid_pairs,
    ensure_grid,
)

__all__ = [
    "TFTransfer",
    "SpreadingFunction",
    "GaussianPrototype",
    "AtomicKernel",
    "StatsReport",
    "CmdSeries",
    "StationarityReport",
    "tf_transfer",
    "spreading_function",
    "atomic_kernel",
    "decompose_atomic",
    "stats_from_decomp",
    "cmd",
    "stationarity_interval",
]

_SIDES = ("tx", "rx")
_CMD_BLOCK_ROWS = 64  # most rows of the distance matrix filled per Gram block


def _check_pair(h: ImpulseResponse4D, u: int, up: int) -> np.ndarray:
    u = checked_int(u, "u", ge=0, lt=h.dims[0])
    up = checked_int(up, "up", ge=0, lt=h.dims[1])
    return h.values[u, up]  # (L_t, L_tau)


@dataclass(frozen=True)
class TFTransfer:
    """Time-frequency transfer grid L[t, f] of one (user, antenna) pair.

    f runs over the DFT grid of the delay axis (normalized frequency).
    """

    values: np.ndarray

    def __post_init__(self):
        values = ensure_grid(self.values, "TFTransfer.values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SpreadingFunction:
    """Delay-Doppler spreading grid S[tau, nu] of one (user, antenna) pair.

    nu runs over the DFT grid of the time axis (normalized Doppler).
    """

    values: np.ndarray

    def __post_init__(self):
        values = ensure_grid(self.values, "SpreadingFunction.values")
        object.__setattr__(self, "values", values)


def tf_transfer(h: ImpulseResponse4D, u: int, up: int) -> TFTransfer:
    """L[t, f] = sum_tau h[u,u',t,tau] exp(-2j pi f tau / L_f), L_f = L_tau."""
    g = _check_pair(h, u, up)
    return TFTransfer(np.fft.fft(g, axis=1))


def spreading_function(h: ImpulseResponse4D, u: int, up: int) -> SpreadingFunction:
    """S[tau, nu] = (1/L_t) sum_t h[u,u',t,tau] exp(-2j pi nu t / L_t)."""
    g = _check_pair(h, u, up)
    return SpreadingFunction(np.fft.fft(g, axis=0).T / g.shape[0])


@dataclass(frozen=True)
class GaussianPrototype:
    """Circular Gaussian window localized at the lattice origin.

    Spreads are standard deviations in lattice samples along the time and
    frequency axes.  ``on_lattice`` evaluates the window with circular
    wrap-around distances and normalizes it to unit Frobenius norm.
    """

    spread_t: float = field(default=4.0, metadata={"gt": 0})
    spread_f: float = field(default=1.0, metadata={"gt": 0})

    def __post_init__(self):
        checked_fields(self)

    def on_lattice(self, n_t: int, n_f: int) -> np.ndarray:
        n_t = checked_int(n_t, "n_t", ge=1)
        n_f = checked_int(n_f, "n_f", ge=1)
        dt = np.arange(n_t, dtype=float)
        dt = np.minimum(dt, n_t - dt)  # circular distance to the origin
        df = np.arange(n_f, dtype=float)
        df = np.minimum(df, n_f - df)
        win = np.exp(
            -0.5 * (dt[:, None] / self.spread_t) ** 2
            - 0.5 * (df[None, :] / self.spread_f) ** 2
        ).astype(np.complex128)
        return win / np.linalg.norm(win)


@dataclass(frozen=True)
class AtomicKernel:
    """Windowed 4-D kernel A[t, f, tau, nu] on the TF x delay-Doppler lattice."""

    values: np.ndarray

    def __post_init__(self):
        arr = checked_array(self.values, 4, "AtomicKernel.values")
        if arr.shape[2] != arr.shape[1] or arr.shape[3] != arr.shape[0]:
            raise DimensionMismatchError(
                "delay/Doppler grid sizes must mirror the TF lattice, got "
                f"{arr.shape}"
            )
        object.__setattr__(self, "values", arr)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(L_t, L_f, L_tau, L_nu)."""
        return self.values.shape


def atomic_kernel(transfer: TFTransfer, prototype: GaussianPrototype) -> AtomicKernel:
    """Windowed kernel A[t,f,tau,nu] from a time-frequency transfer grid.

    A[t,f,tau,nu] = exp(2j pi f tau / L_f) * sum_{t',f'} L[t',f']
    conj(G[t'-t, f'-f]) exp(-2j pi (nu t'/L_t - tau f'/L_f)), with all index
    arithmetic circular on the lattice and G the prototype evaluated on it.
    Linear in the transfer grid.
    """
    for name, value, cls in (
        ("transfer", transfer, TFTransfer),
        ("prototype", prototype, GaussianPrototype),
    ):
        if not isinstance(value, cls):
            raise ValidationError(
                f"{name} must be a {cls.__name__}, got {type(value).__name__}"
            )
    lv = transfer.values
    n_t, n_f = lv.shape
    proto = prototype.on_lattice(n_t, n_f)

    # windowed grids for every lattice shift, batched over the t axis to
    # bound peak memory at n_f * (lattice size) per batch
    tt = np.arange(n_t)
    ff = np.arange(n_f)
    shift_f = (ff[None, :] - ff[:, None]) % n_f  # [f, f']
    proto_f = np.conj(proto)[:, shift_f]  # [t'-t index, f, f']
    out = np.empty((n_t, n_f, n_f, n_t), dtype=np.complex128)
    for t in range(n_t):
        rows = (tt - t) % n_t  # t' -> t'-t
        m = lv[:, None, :] * proto_f[rows]  # [t', f, f']
        spec = np.fft.fft(np.fft.ifft(m, axis=2) * n_f, axis=0)  # [nu, f, tau]
        out[t] = np.transpose(spec, (1, 2, 0))  # [f, tau, nu]
    phase = np.exp(2j * np.pi * np.outer(ff, np.arange(n_f)) / n_f)  # [f, tau]
    out *= phase[None, :, :, None]
    return AtomicKernel(_freeze(out))


def decompose_atomic(ak: AtomicKernel) -> EigenDecomposition:
    """SVD of the atomic kernel with (t,f) rows against (tau,nu) columns."""
    return decompose_grid_pairs(ak.values)


@dataclass(frozen=True)
class StatsReport:
    """Eigen-domain channel statistics, optionally ensemble-averaged.

    ccf_mag[dt,df,dtau,dnu]: correlation magnitude over lattice shifts;
    lsf[t,f,tau,nu]: nonnegative local scattering density; scattering[tau,nu]
    and path_gain[t,f] are its marginals; total_gain is the sum of
    eigenvalues.  ensemble_size reports how many realizations were averaged
    (1 = single-realization estimate).
    """

    ccf_mag: np.ndarray
    lsf: np.ndarray
    scattering: np.ndarray
    path_gain: np.ndarray
    total_gain: float
    ensemble_size: int
    source_dims: tuple[int, int, int, int]


def _single_stats(decomp: EigenDecomposition):
    lam = decomp.lambdas
    psis = decomp.psis
    phis = decomp.phis
    # circular autocorrelation of each eigenfunction grid via the FFT route
    acf_psi = np.abs(np.fft.ifft2(np.abs(np.fft.fft2(psis, axes=(1, 2))) ** 2,
                                  axes=(1, 2)))
    acf_phi = np.abs(np.fft.ifft2(np.abs(np.fft.fft2(phis, axes=(1, 2))) ** 2,
                                  axes=(1, 2)))
    ccf = np.einsum("n,nab,ncd->abcd", lam, acf_psi, acf_phi, optimize=True)
    p2 = np.abs(psis) ** 2
    q2 = np.abs(phis) ** 2
    lsf = np.einsum("n,nab,ncd->abcd", lam, p2, q2, optimize=True)
    path_gain = np.einsum("n,nab->ab", lam, p2, optimize=True)
    scattering = np.einsum("n,ncd->cd", lam, q2, optimize=True)
    return ccf, lsf, scattering, path_gain, float(lam.sum())


def stats_from_decomp(
    decomp: EigenDecomposition | None,
    ensemble: Iterable[EigenDecomposition] | None = None,
) -> StatsReport:
    """Table-style statistics from one decomposition or an ensemble of them.

    With ``ensemble`` given, ``decomp`` must be None and every member's
    statistics are averaged elementwise (eigenvalues enter through their
    per-member values, so the average estimates the ensemble quantities).
    Members are reduced one at a time, so a generator ensemble can be large.
    """
    if decomp is not None and ensemble is not None:
        raise ValidationError("give a decomposition or an ensemble, not both")
    if ensemble is None:
        if decomp is None:
            raise ValidationError("need a decomposition or a non-empty ensemble")
        ensemble = (decomp,)
    acc = dims = None
    for count, m in enumerate(ensemble, 1):
        dims = dims or m.source_dims
        if m.source_dims != dims:
            raise DimensionMismatchError(
                f"ensemble members disagree on dims: {m.source_dims} vs {dims}"
            )
        if m.n_modes == 0:
            raise ValidationError("ensemble contains an empty decomposition")
        parts = _single_stats(m)
        acc = list(parts) if acc is None else [a + p for a, p in zip(acc, parts)]
        del m, parts  # before the next member is made
    if acc is None:
        raise ValidationError("ensemble is empty")
    return StatsReport(*(a / count for a in acc), ensemble_size=count, source_dims=dims)


@dataclass(frozen=True)
class CmdSeries:
    """Pairwise correlation matrix distance between sliding-window starts.

    distances[i, j] compares the windowed spatial correlation matrix at
    start i with the one at start j; zero on the diagonal, bounded by 1.
    """

    distances: np.ndarray
    window: int
    side: str

    def __post_init__(self):
        arr = checked_array(self.distances, 2, "CmdSeries.distances", float)
        if arr.shape[0] != arr.shape[1]:
            raise ValidationError(
                f"distance matrix must be square, got {arr.shape}"
            )
        if self.side not in _SIDES:
            raise ValidationError(
                f"CmdSeries.side must be 'tx' or 'rx', got {self.side!r}"
            )
        window = checked_int(self.window, "CmdSeries.window", ge=2)
        object.__setattr__(self, "distances", arr)
        object.__setattr__(self, "window", window)

    @property
    def n_starts(self) -> int:
        return self.distances.shape[0]


@dataclass(frozen=True)
class StationarityReport:
    """Per-start stationarity intervals at a fixed distance threshold."""

    intervals: np.ndarray  # symbols, one per window start
    threshold: float
    window: int
    side: str

    def __post_init__(self):
        arr = checked_array(self.intervals, 1, "StationarityReport.intervals", int)
        name = "StationarityReport.threshold"
        threshold = checked_real(self.threshold, name, gt=0, le=1)
        window = checked_int(self.window, "StationarityReport.window", ge=2)
        if self.side not in _SIDES:
            raise ValidationError(
                f"StationarityReport.side must be 'tx' or 'rx', got {self.side!r}"
            )
        object.__setattr__(self, "intervals", arr)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "window", window)


def _window_correlations(h: ImpulseResponse4D, side: str, window: int) -> np.ndarray:
    """Sliding-window mean correlation matrices, flattened one row per start.

    A function of its own so that its temporaries are gone before ``cmd``
    allocates the distance matrix.
    """
    mats = _instant_matrices(h)
    if side == "tx":
        inst = np.einsum("tua,tub->tab", mats, np.conj(mats), optimize=True)
    else:
        inst = np.einsum("tau,tbu->tab", mats, np.conj(mats), optimize=True)
    # sliding-window mean via cumulative sums
    csum = np.cumsum(inst, axis=0)
    zero = np.zeros_like(csum[:1])
    csum = np.concatenate([zero, csum], axis=0)
    n_starts = inst.shape[0] - window + 1
    rmats = (csum[window : window + n_starts] - csum[:n_starts]) / window
    return rmats.reshape(n_starts, -1)


def cmd(h: ImpulseResponse4D, side: str = "tx", window: int = 8) -> CmdSeries:
    """Correlation matrix distance over sliding windows of the tap-summed channel.

    side "tx" compares transmit-side correlation matrices mean(H^T conj(H)),
    side "rx" receive-side mean(H H^H), where H(t) sums the delay taps.
    d[i,j] = 1 - Re<R_i, R_j> / (||R_i|| ||R_j||), clipped into [0, 1].
    """
    if side not in _SIDES:
        raise ValidationError(f"side must be 'tx' or 'rx', got {side!r}")
    window = checked_int(window, "window", ge=2, le=h.dims[2])
    flat = _window_correlations(h, side, window)
    n_starts = flat.shape[0]
    norms = np.linalg.norm(flat, axis=1)
    tiny = np.finfo(float).tiny
    conj_t = np.conj(flat.T)
    # filled in place a block of rows at a time, so neither the complex Gram
    # matrix nor a full-size temporary is made; blocks differ in size by at
    # most one row, so none is a lone row (a matrix-vector product) unless
    # the matrix has one row
    dist = np.empty((n_starts, n_starts))
    n_blocks = -(-n_starts // _CMD_BLOCK_ROWS)
    edges = [n_starts * b // n_blocks for b in range(n_blocks + 1)]
    for lo, hi in zip(edges, edges[1:]):
        block = dist[lo:hi]
        block[...] = np.real(flat[lo:hi] @ conj_t)
        denom = np.outer(norms[lo:hi], norms)
        block /= np.maximum(denom, tiny, out=denom)
        np.subtract(1.0, block, out=block)
    np.clip(dist, 0.0, 1.0, out=dist)
    return CmdSeries(distances=_freeze(dist), window=window, side=side)


def stationarity_interval(series: CmdSeries, d0: float) -> StationarityReport:
    """Largest contiguous span around zero shift where the distance stays < d0.

    For each window start i the span extends forward while d[i, i+k] < d0
    and backward while d[i, i-k] < d0; the interval length in symbols counts
    the start itself plus both runs.
    """
    d0 = checked_real(d0, "d0", gt=0, le=1)
    n = series.n_starts
    # the crossings d >= d0, bordered by a row and a column of True that end
    # every run at the edge of the matrix
    crossed = np.ones((n + 1, n + 1), dtype=bool)
    inner = crossed[:n, :n]
    np.greater_equal(series.distances, d0, out=inner)
    ahead = _runs_ahead(crossed)
    # the backward runs are the forward runs of the matrix turned by 180 degrees
    inner[...] = inner[::-1, ::-1]
    behind = _runs_ahead(crossed)[::-1]
    return StationarityReport(
        intervals=1 + ahead + behind, threshold=d0, window=series.window, side=series.side
    )


def _runs_ahead(crossed: np.ndarray) -> np.ndarray:
    """Per row i < n of the bordered (n+1) x (n+1) mask, the count of False
    entries from crossed[i, i+1] up to the first True (the border at latest).

    Row i of the reshaped view starts at crossed[i, i+1], so one argmax, which
    stops at the first True, finds every run.
    """
    n = crossed.shape[0] - 1
    return crossed.ravel()[1:].reshape(n, n + 2).argmax(axis=1)
