"""Second-order channel statistics through the eigenfunction route.

The chain: per-pair impulse response -> time-frequency transfer grid ->
windowed atomic kernel on the joint time-frequency x delay-Doppler lattice
-> SVD of that kernel -> correlation/scattering/path-gain summaries built
from the eigenvalues and eigenfunction grids alone.  Stationarity metrics
(per-start-time ACF, correlation matrix distance, stationarity interval)
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
    "acf",
    "cmd",
    "stationarity_interval",
]

_SIDES = ("tx", "rx")


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

    @property
    def dims(self) -> tuple[int, int]:
        """(L_t, L_f)."""
        return self.values.shape


@dataclass(frozen=True)
class SpreadingFunction:
    """Delay-Doppler spreading grid S[tau, nu] of one (user, antenna) pair.

    nu runs over the DFT grid of the time axis (normalized Doppler).
    """

    values: np.ndarray

    def __post_init__(self):
        values = ensure_grid(self.values, "SpreadingFunction.values")
        object.__setattr__(self, "values", values)

    @property
    def dims(self) -> tuple[int, int]:
        """(L_tau, L_nu)."""
        return self.values.shape


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


def _prototype_window(prototype, n_t: int, n_f: int) -> np.ndarray:
    """Checked unit-norm window on the (n_t, n_f) lattice.

    ``prototype`` is a GaussianPrototype, evaluated on the lattice, or a grid
    that must already have that shape and unit Frobenius norm.
    """
    if isinstance(prototype, GaussianPrototype):
        prototype = prototype.on_lattice(n_t, n_f)
    proto = checked_array(prototype, 2, "prototype")
    if proto.shape != (n_t, n_f):
        raise DimensionMismatchError(
            f"prototype shape {proto.shape} does not match lattice ({n_t}, {n_f})"
        )
    # written so that a NaN norm fails too
    if not abs(np.linalg.norm(proto) - 1.0) <= 1e-9:
        raise ValidationError(
            "prototype window must have unit norm (pass a GaussianPrototype "
            "to normalize automatically)"
        )
    return proto


@dataclass(frozen=True)
class AtomicKernel:
    """Windowed 4-D kernel A[t, f, tau, nu] on the TF x delay-Doppler lattice."""

    values: np.ndarray
    prototype: np.ndarray

    def __post_init__(self):
        arr = checked_array(self.values, 4, "AtomicKernel.values")
        if arr.shape[2] != arr.shape[1] or arr.shape[3] != arr.shape[0]:
            raise DimensionMismatchError(
                "delay/Doppler grid sizes must mirror the TF lattice, got "
                f"{arr.shape}"
            )
        proto = _prototype_window(self.prototype, arr.shape[0], arr.shape[1])
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "prototype", proto)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(L_t, L_f, L_tau, L_nu)."""
        return self.values.shape


def atomic_kernel(transfer: TFTransfer, prototype) -> AtomicKernel:
    """Windowed kernel A[t,f,tau,nu] from a time-frequency transfer grid.

    A[t,f,tau,nu] = exp(2j pi f tau / L_f) * sum_{t',f'} L[t',f']
    conj(G[t'-t, f'-f]) exp(-2j pi (nu t'/L_t - tau f'/L_f)), with all index
    arithmetic circular on the lattice.  Linear in the transfer grid.
    """
    lv = transfer.values
    n_t, n_f = lv.shape
    proto = _prototype_window(prototype, n_t, n_f)

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
    return AtomicKernel(values=out, prototype=proto)


def decompose_atomic(ak: AtomicKernel) -> EigenDecomposition:
    """SVD of the atomic kernel flattened as (t,f) rows against (tau,nu) columns."""
    n_t, n_f, n_tau, n_nu = ak.dims
    mat = ak.values.reshape(n_t * n_f, n_tau * n_nu)
    return decompose_grid_pairs(mat, (n_t, n_f), (n_tau, n_nu))


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
    """
    if decomp is not None and ensemble is not None:
        raise ValidationError("give a decomposition or an ensemble, not both")
    if ensemble is not None:
        members = list(ensemble)
    elif decomp is not None:
        members = [decomp]
    else:
        raise ValidationError("need a decomposition or a non-empty ensemble")
    if not members:
        raise ValidationError("ensemble is empty")
    dims = members[0].source_dims
    for m in members:
        if m.source_dims != dims:
            raise DimensionMismatchError(
                f"ensemble members disagree on dims: {m.source_dims} vs {dims}"
            )
        if m.n_modes == 0:
            raise ValidationError("ensemble contains an empty decomposition")
    acc = None
    for m in members:
        parts = _single_stats(m)
        if acc is None:
            acc = list(parts)
        else:
            for i in range(4):
                acc[i] = acc[i] + parts[i]
            acc[4] += parts[4]
    k = float(len(members))
    return StatsReport(
        ccf_mag=acc[0] / k,
        lsf=acc[1] / k,
        scattering=acc[2] / k,
        path_gain=acc[3] / k,
        total_gain=acc[4] / k,
        ensemble_size=len(members),
        source_dims=dims,
    )


def acf(h: ImpulseResponse4D, u: int, up: int, max_lag: int) -> np.ndarray:
    """Per-start-time autocorrelation magnitude over the delay axis.

    Returns a real grid of shape (L_t - max_lag, max_lag + 1); entry [t, l]
    is |sum_tau g[t+l,tau] conj(g[t,tau])| normalized by the geometric mean
    of the energies at t and t+l.  Row t covers every lag from the same
    start time, so time variation of the correlation structure shows up as
    variation across rows.
    """
    g = _check_pair(h, u, up)
    l_t = g.shape[0]
    max_lag = checked_int(max_lag, "max_lag", ge=0, lt=l_t)
    energy = np.sum(np.abs(g) ** 2, axis=1)
    n_starts = l_t - max_lag
    out = np.empty((n_starts, max_lag + 1), dtype=float)
    tiny = np.finfo(float).tiny
    for lag in range(max_lag + 1):
        corr = np.sum(g[lag : lag + n_starts] * np.conj(g[:n_starts]), axis=1)
        denom = np.sqrt(energy[lag : lag + n_starts] * energy[:n_starts])
        out[:, lag] = np.abs(corr) / np.maximum(denom, tiny)
    return out


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

    def at(self, t: int, dt: int) -> float:
        """d_corr between window starts t and t + dt."""
        return float(self.distances[t, t + dt])


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


def cmd(h: ImpulseResponse4D, side: str = "tx", window: int = 8) -> CmdSeries:
    """Correlation matrix distance over sliding windows of the tap-summed channel.

    side "tx" compares transmit-side correlation matrices mean(H^T conj(H)),
    side "rx" receive-side mean(H H^H), where H(t) sums the delay taps.
    d[i,j] = 1 - Re<R_i, R_j> / (||R_i|| ||R_j||), clipped into [0, 1].
    """
    if side not in _SIDES:
        raise ValidationError(f"side must be 'tx' or 'rx', got {side!r}")
    l_u, l_up, l_t, _ = h.dims
    window = checked_int(window, "window", ge=2, le=l_t)
    mats = _instant_matrices(h)
    if side == "tx":
        inst = np.einsum("tua,tub->tab", mats, np.conj(mats), optimize=True)
    else:
        inst = np.einsum("tau,tbu->tab", mats, np.conj(mats), optimize=True)
    # sliding-window mean via cumulative sums
    csum = np.cumsum(inst, axis=0)
    zero = np.zeros_like(csum[:1])
    csum = np.concatenate([zero, csum], axis=0)
    n_starts = l_t - window + 1
    rmats = (csum[window : window + n_starts] - csum[:n_starts]) / window
    flat = rmats.reshape(n_starts, -1)
    norms = np.linalg.norm(flat, axis=1)
    tiny = np.finfo(float).tiny
    gram = np.real(flat @ np.conj(flat.T))
    denom = np.maximum(np.outer(norms, norms), tiny)
    dist = 1.0 - gram / denom
    return CmdSeries(distances=np.clip(dist, 0.0, 1.0), window=window, side=side)


def stationarity_interval(series: CmdSeries, d0: float) -> StationarityReport:
    """Largest contiguous span around zero shift where the distance stays < d0.

    For each window start i the span extends forward while d[i, i+k] < d0
    and backward while d[i, i-k] < d0; the interval length in symbols counts
    the start itself plus both runs.
    """
    d0 = checked_real(d0, "d0", gt=0, le=1)
    n = series.n_starts
    intervals = np.ones(n, dtype=int)
    for i in range(n):
        crossed = series.distances[i] >= d0
        # each run ends at its first crossing, or at the end of the row
        for run in (crossed[i + 1 :], crossed[:i][::-1]):
            intervals[i] += run.argmax() if run.any() else run.size
    return StationarityReport(
        intervals=intervals, threshold=d0, window=series.window, side=series.side
    )
