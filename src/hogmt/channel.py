"""Synthetic non-stationary multi-user channels.

Generates time-varying impulse responses h[u, u', t, tau] with three
nonstationarity modes, converts them to 4-D kernels (zero signal history
before t = 0, linear non-circular delay), applies the noisy channel, splits
the received signal into its four interference terms, and persists channels
in a bit-exact binary format (CTF).

Tap processes are sums of 16 random sinusoids.  In "wssus" and "block" modes
the sinusoid frequencies live on the DFT grid of the time horizon, which
makes every tap exactly circularly stationary; "drift" mode uses continuous
Jakes-style frequencies with a linear chirp and a linearly growing power
envelope, so first and second-order statistics change over time.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    FormatError,
    ValidationError,
)
from .kernels import (
    Kernel4D,
    _banded,
    apply_kernel,
    checked_array,
    checked_fields,
    checked_int,
    checked_real,
    ensure_grid,
)

__all__ = [
    "ScenarioConfig",
    "ImpulseResponse4D",
    "SpaceTimeSignal",
    "InterferenceSplit",
    "generate_channel",
    "to_kernel",
    "transmit",
    "interference_split",
    "save_ctf",
    "load_ctf",
]

MODES = ("wssus", "block", "drift")

_SINUSOIDS_PER_TAP = 16

# Substream tags for seed derivation, all modules' here so they stay disjoint.
# Every random draw comes from a SeedSequence keyed by (tag, indices...) under
# the master seed, so results do not depend on loop order or parallel scheduling.
_SEED_SPREAD = 1
_SEED_TAP = 2
_SEED_NOISE = 3
_SEED_BER_CHANNEL = 10  # linksim: channel draw per channel, shared by every SNR point
_SEED_BER_BITS = 11  # linksim: bits per (first trial of chunk, modulation), every SNR point
_SEED_BER_NOISE = 12  # linksim: unit noise per (first trial of chunk, modulation), every SNR point
_SEED_CLI_BITS = 20  # cli precode: data bits
_SEED_STATS_MEMBER = 21  # cli stats: channel seed per ensemble member

_CTF_MAGIC = b"HGMTCTF1"
_CTF_VERSION = 1
_CTF_HEADER = struct.Struct("<8s5I")  # magic, version, L_u, L_u', L_t, L_tau
_MAX_CTF_ENTRIES = 1 << 40  # reject absurd declared sizes before allocating


def _substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one logical substream of the master seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


def _child_seed(master_seed: int, *key: int) -> int:
    """Seed in [0, 2**63) of one nested draw (a channel), keyed like a substream."""
    return int(_substream(master_seed, *key).integers(0, 2**63))


@dataclass(frozen=True)
class ScenarioConfig:
    """Channel scenario: dimensions, nonstationarity mode, and statistics.

    All values are validated on construction; error messages name the
    offending field and its constraint; :func:`checked_fields` checks the
    number fields against the intervals in their metadata.
    """

    users: int = field(default=4, metadata={"ge": 1})
    tx_antennas: int = field(default=4, metadata={"ge": 1})
    time_symbols: int = field(default=256, metadata={"ge": 1})
    min_delay_taps: int = field(default=1, metadata={"ge": 1})
    max_delay_taps: int = 4  # in [min_delay_taps, time_symbols]
    mode: str = "wssus"
    block_len: int = field(default=64, metadata={"ge": 1})
    doppler_max: float = field(default=0.05, metadata={"ge": 0, "lt": 0.5})
    doppler_drift: float = field(default=0.0, metadata={"ge": 0})
    spatial_corr: float = field(default=0.0, metadata={"ge": 0, "lt": 1})
    delay_decay: float = field(default=0.5, metadata={"ge": 0})

    def __post_init__(self):
        checked_fields(self)
        if self.max_delay_taps < self.min_delay_taps:
            raise ValidationError(
                "max_delay_taps must be >= min_delay_taps, got "
                f"{self.max_delay_taps} < {self.min_delay_taps}"
            )
        if self.max_delay_taps > self.time_symbols:
            raise ValidationError(
                "max_delay_taps must be <= time_symbols, got "
                f"{self.max_delay_taps} > {self.time_symbols}"
            )
        if self.mode not in MODES:
            raise ValidationError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.mode == "drift":
            peak = self.doppler_max * (
                1.0 + self.doppler_drift * (self.time_symbols - 1)
            )
            if peak >= 0.5:
                raise ValidationError(
                    "doppler_max scaled by doppler_drift over the horizon must "
                    f"stay < 0.5 cycles/symbol, got peak {peak:.4g} "
                    f"(doppler_max={self.doppler_max}, "
                    f"doppler_drift={self.doppler_drift})"
                )


@dataclass(frozen=True)
class ImpulseResponse4D:
    """Time-varying impulse response h[u, u', t, tau].

    u indexes receive users, u' transmit antennas, t time symbols, tau delay
    taps.  The number of taps never exceeds the time horizon.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = checked_array(self.values, 4, "ImpulseResponse4D.values")
        if min(arr.shape) < 1:
            raise ValidationError(
                f"impulse response dims must be >= 1, got {arr.shape}"
            )
        if arr.shape[3] > arr.shape[2]:
            raise ValidationError(
                f"delay taps ({arr.shape[3]}) must not exceed time symbols "
                f"({arr.shape[2]})"
            )
        object.__setattr__(self, "values", arr)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(L_u, L_u', L_t, L_tau)."""
        return self.values.shape


def _instant_matrices(h: ImpulseResponse4D) -> np.ndarray:
    """Narrowband per-instant matrices H(t) = sum over taps, shape (L_t, L_u, L_u')."""
    return np.moveaxis(h.values.sum(axis=3), 2, 0)


@dataclass(frozen=True)
class SpaceTimeSignal:
    """Checked 2-D complex grid over (user/antenna stream, time symbol)."""

    grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", ensure_grid(self.grid, "SpaceTimeSignal.grid"))

    @property
    def dims(self) -> tuple[int, int]:
        return self.grid.shape

    @property
    def energy(self) -> float:
        """Total energy sum |grid|^2."""
        return float(np.sum(np.abs(self.grid) ** 2))


@dataclass(frozen=True)
class InterferenceSplit:
    """Noise-free received signal split into its four interference terms.

    signal: own-stream tau=0 term; spatial: cross-stream tau=0; temporal:
    own-stream tau>=1; joint: cross-stream tau>=1.  The four grids sum to
    the full kernel output.
    """

    signal: SpaceTimeSignal
    spatial: SpaceTimeSignal
    temporal: SpaceTimeSignal
    joint: SpaceTimeSignal

    def total(self) -> np.ndarray:
        return (
            self.signal.grid + self.spatial.grid + self.temporal.grid + self.joint.grid
        )


def generate_channel(cfg: ScenarioConfig, seed: int) -> ImpulseResponse4D:
    """Draw one channel realization, deterministic in (cfg, seed).

    Per-(u, u') delay spreads are uniform integers in
    [min_delay_taps, max_delay_taps]; tap powers follow a normalized
    exponential profile exp(-delay_decay * tau); antenna columns are mixed
    by the Cholesky factor of the spatial_corr^|du'| correlation matrix.
    """
    seed = checked_int(seed, "seed", ge=0, lt=2**64)
    l_u, l_up = cfg.users, cfg.tx_antennas
    l_t, l_tau = cfg.time_symbols, cfg.max_delay_taps
    m = _SINUSOIDS_PER_TAP
    t = np.arange(l_t, dtype=float)

    # raw unit-power tap processes, independent per (u, u', tau)
    raw = np.empty((l_u, l_up, l_t, l_tau), dtype=np.complex128)
    for u in range(l_u):
        for up in range(l_up):
            for tau in range(l_tau):
                if cfg.mode == "wssus":
                    rng = _substream(seed, _SEED_TAP, u, up, tau)
                    raw[u, up, :, tau] = _grid_sinusoids(rng, t, l_t, cfg.doppler_max)
                elif cfg.mode == "block":
                    g = np.empty(l_t, dtype=np.complex128)
                    n_blocks = math.ceil(l_t / cfg.block_len)
                    for b in range(n_blocks):
                        lo = b * cfg.block_len
                        hi = min(l_t, lo + cfg.block_len)
                        rng = _substream(seed, _SEED_TAP, u, up, tau, b)
                        g[lo:hi] = _grid_sinusoids(rng, t[lo:hi], l_t, cfg.doppler_max)
                    raw[u, up, :, tau] = g
                else:  # drift
                    rng = _substream(seed, _SEED_TAP, u, up, tau)
                    raw[u, up, :, tau] = _drift_sinusoids(
                        rng, t, cfg.doppler_max, cfg.doppler_drift
                    )

    # spatial correlation across the transmit-antenna axis
    if cfg.spatial_corr > 0.0 and l_up > 1:
        idx = np.arange(l_up)
        corr = cfg.spatial_corr ** np.abs(idx[:, None] - idx[None, :])
        chol = np.linalg.cholesky(corr)
        raw = np.einsum("ab,ubtk->uatk", chol, raw, optimize=True)

    # per-pair delay spread and normalized exponential power profile
    base_profile = np.exp(-cfg.delay_decay * np.arange(l_tau, dtype=float))
    h = np.zeros_like(raw)
    for u in range(l_u):
        for up in range(l_up):
            rng = _substream(seed, _SEED_SPREAD, u, up)
            spread = int(
                rng.integers(cfg.min_delay_taps, cfg.max_delay_taps + 1)
            )
            prof = base_profile[:spread]
            amp = np.sqrt(prof / prof.sum())
            h[u, up, :, :spread] = raw[u, up, :, :spread] * amp[None, :]
    return ImpulseResponse4D(h)


def _grid_sinusoids(
    rng: np.random.Generator, times: np.ndarray, horizon: int, max_doppler: float
) -> np.ndarray:
    """Unit-power sum of sinusoids with frequencies on the horizon's DFT grid."""
    k_max = int(math.floor(max_doppler * horizon))
    ks = rng.integers(-k_max, k_max + 1, size=_SINUSOIDS_PER_TAP).astype(float)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=_SINUSOIDS_PER_TAP)
    phase = 2.0 * np.pi * np.outer(times, ks) / float(horizon) + thetas[None, :]
    return np.exp(1j * phase).sum(axis=1) / math.sqrt(_SINUSOIDS_PER_TAP)


def _drift_sinusoids(
    rng: np.random.Generator, times: np.ndarray, max_doppler: float, drift: float
) -> np.ndarray:
    """Chirped Jakes-style tap with a linearly growing power envelope.

    Instantaneous frequency of sinusoid m is nu_m * (1 + drift * t) and the
    expected power at time t is (1 + drift * t), so both the correlation
    structure and the variance change along the horizon.
    """
    alphas = rng.uniform(0.0, 2.0 * np.pi, size=_SINUSOIDS_PER_TAP)
    nus = max_doppler * np.cos(alphas)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=_SINUSOIDS_PER_TAP)
    phase = (
        thetas[None, :]
        + 2.0 * np.pi * np.outer(times * (1.0 + 0.5 * drift * times), nus)
    )
    env = np.sqrt(1.0 + drift * times)
    return env * np.exp(1j * phase).sum(axis=1) / math.sqrt(_SINUSOIDS_PER_TAP)


def to_kernel(h: ImpulseResponse4D) -> Kernel4D:
    """4-D kernel K[u, t, u', t'] = h[u, u', t, t - t'] for 0 <= t - t' < L_tau.

    Entries outside the delay window are zero; the signal has no history
    before t = 0, so the delay convolution is linear, not circular.  The
    blocks h[:, :, t, tau] are laid out by ``kernels._banded``.
    """
    return Kernel4D(_banded(np.moveaxis(h.values, (3, 2), (0, 1))))


def transmit(kernel: Kernel4D, x, noise_var: float, seed: int | None = None):
    """Noisy channel output r = K x + v.

    v is i.i.d. circularly-symmetric complex Gaussian with the given variance
    per complex sample, drawn from a dedicated substream of ``seed``; a
    ``seed`` of None means master seed 0.  Like ``apply_kernel``, ``x`` may
    be a plain 2-D grid or a space-time signal, and the result is the same
    kind at every noise variance.
    """
    noise_var = checked_real(noise_var, "noise_var", ge=0)
    seed = 0 if seed is None else checked_int(seed, "seed", ge=0, lt=2**64)
    clean = apply_kernel(kernel, x)
    if noise_var == 0.0:
        return clean
    grid = getattr(clean, "grid", clean)
    rng = _substream(seed, _SEED_NOISE)
    scale = math.sqrt(noise_var / 2.0)
    v = scale * (
        rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )
    return type(clean)(grid=grid + v) if hasattr(clean, "grid") else grid + v


def interference_split(h: ImpulseResponse4D, s: SpaceTimeSignal) -> InterferenceSplit:
    """Split the noise-free received signal into its four interference terms.

    Requires one receive user per transmit antenna so the own-stream term is
    well defined.  The terms:

      signal[u,t]   = h[u,u,t,0] s[u,t]
      spatial[u,t]  = sum_{u' != u} h[u,u',t,0] s[u',t]
      temporal[u,t] = sum_{tau >= 1} h[u,u,t,tau] s[u,t-tau]
      joint[u,t]    = sum_{u' != u, tau >= 1} h[u,u',t,tau] s[u',t-tau]
    """
    l_u, l_up, l_t, l_tau = h.dims
    if l_u != l_up:
        raise DimensionMismatchError(
            "interference split needs matching user/antenna counts, got "
            f"L_u={l_u} and L_u'={l_up}"
        )
    grid = ensure_grid(s, "data signal", (l_up, l_t))
    # delayed copies of the signal, zero before t = 0
    delayed = np.zeros((l_up, l_t, l_tau), dtype=np.complex128)
    for tau in range(l_tau):
        delayed[:, tau:, tau] = grid[:, : l_t - tau]

    hv = h.values  # (u, u', t, tau)
    full = np.einsum("avtk,vtk->at", hv, delayed, optimize=True)
    own = np.einsum("aatk,atk->at", hv, delayed, optimize=True)
    own_t0 = hv[np.arange(l_u), np.arange(l_u), :, 0] * grid
    full_t0 = np.einsum("avt,vt->at", hv[:, :, :, 0], grid, optimize=True)

    signal = own_t0
    spatial = full_t0 - own_t0
    temporal = own - own_t0
    joint = full - own - full_t0 + own_t0
    return InterferenceSplit(
        *(SpaceTimeSignal(g) for g in (signal, spatial, temporal, joint))
    )


def save_ctf(h: ImpulseResponse4D, path) -> None:
    """Write the impulse response in the CTF container (lossless, bit-exact).

    Layout: 8-byte magic "HGMTCTF1", u32 little-endian version 1, four u32
    little-endian dims (L_u, L_u', L_t, L_tau), then L_u*L_u'*L_t*L_tau
    complex values as little-endian float64 (real, imag) pairs with the tau
    index fastest.
    """
    l_u, l_up, l_t, l_tau = h.dims
    for d in h.dims:
        checked_int(d, "CTF header dimension", ge=0, lt=2**32)
    header = _CTF_HEADER.pack(_CTF_MAGIC, _CTF_VERSION, l_u, l_up, l_t, l_tau)
    payload = np.ascontiguousarray(h.values).astype("<c16", copy=False)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes(order="C"))


def load_ctf(path) -> ImpulseResponse4D:
    """Read a CTF file, validating structure with byte-offset diagnostics."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise FormatError(
            f"file too short for magic: {len(blob)} bytes", offset=0
        )
    if blob[:8] != _CTF_MAGIC:
        raise FormatError(
            f"bad magic {blob[:8]!r}, expected {_CTF_MAGIC!r}", offset=0
        )
    if len(blob) < 12:
        raise FormatError("file truncated inside version field", offset=8)
    (version,) = struct.unpack_from("<I", blob, 8)
    if version != _CTF_VERSION:
        raise FormatError(
            f"unsupported version {version}, expected {_CTF_VERSION}", offset=8
        )
    if len(blob) < _CTF_HEADER.size:
        raise FormatError("file truncated inside dimension header", offset=12)
    l_u, l_up, l_t, l_tau = struct.unpack_from("<4I", blob, 12)
    dims = (l_u, l_up, l_t, l_tau)
    if min(dims) < 1:
        raise FormatError(f"all dims must be >= 1, got {dims}", offset=12)
    n_entries = l_u * l_up * l_t * l_tau
    if n_entries > _MAX_CTF_ENTRIES:
        raise FormatError(
            f"declared dims {dims} overflow the supported payload size", offset=12
        )
    if l_tau > l_t:
        raise FormatError(
            f"delay taps {l_tau} exceed time symbols {l_t}", offset=12
        )
    expected = n_entries * 16
    actual = len(blob) - _CTF_HEADER.size
    if actual != expected:
        raise FormatError(
            f"payload holds {actual} bytes but dims {dims} require {expected}",
            offset=_CTF_HEADER.size,
        )
    flat = np.frombuffer(blob, dtype="<c16", offset=_CTF_HEADER.size)
    values = flat.reshape(dims)  # ImpulseResponse4D makes the native copy
    if not np.all(np.isfinite(values)):
        raise FormatError(
            "payload contains non-finite values", offset=_CTF_HEADER.size
        )
    return ImpulseResponse4D(values)
