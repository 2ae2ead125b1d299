"""Synthetic non-stationary multi-user channels.

Generates time-varying impulse responses h[u, u', t, tau] with three
nonstationarity modes, converts them to 4-D kernels (zero signal history
before t = 0, linear non-circular delay), and persists channels in a
bit-exact binary format (CTF).

Tap processes are sums of 16 random sinusoids.  In "wssus" and "block" modes
the sinusoid frequencies live on the DFT grid of the time horizon, which
makes every tap exactly circularly stationary; "drift" mode uses continuous
Jakes-style frequencies with a linear chirp and a linearly growing power
envelope, so first and second-order statistics change over time.  One
channel is one substream of its seed, drawn with array operations (see
``generate_channel`` for the draw order).
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError
from .kernels import (
    Kernel4D,
    _banded,
    _freeze,
    checked_fields,
    checked_int,
)

__all__ = [
    "ScenarioConfig",
    "ImpulseResponse4D",
    "SpaceTimeSignal",
    "generate_channel",
    "to_kernel",
    "save_ctf",
    "load_ctf",
]

MODES = ("wssus", "block", "drift")

_SINUSOIDS_PER_TAP = 16

# Substream tags for seed derivation, all modules' here so they stay disjoint.
# Every random draw comes from a SeedSequence keyed by (tag, indices...) under
# the master seed, so results do not depend on loop order or parallel scheduling.
_SEED_CHANNEL = 1  # channel: every tap process and delay spread of one channel
_SEED_BER_CHANNEL = 10  # linksim: channel draw per channel, shared by every SNR point
_SEED_BER_BITS = 11  # linksim: bits per (first trial of chunk, modulation), every SNR point
_SEED_BER_NOISE = 12  # linksim: unit noise per (first trial of chunk, modulation), every SNR point
_SEED_CLI_BITS = 20  # cli precode: data bits
_SEED_STATS_MEMBER = 21  # cli stats: channel seed per ensemble member
_MASTER_SEED_RANGE = {"ge": 0, "lt": 2**64}  # every master seed, as checked_int bounds

_CTF_MAGIC = b"HGMTCTF1"
_CTF_VERSION = 1
_CTF_HEADER = struct.Struct("<8s5I")  # magic, version, L_u, L_u', L_t, L_tau
_MAX_CTF_ENTRIES = 1 << 40  # reject absurd declared sizes before allocating
_PIPE_PIECE = 1 << 24  # most bytes load_ctf asks a pipe for in one read


def _physical_memory() -> int:
    """Bytes of physical memory: the budget every memory check compares against."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# The SVD of a dense operator of b bytes peaks at 8.5 b: the operator, NumPy's
# copy of it, U and Vh both in LAPACK's buffers and as returned (4 b) and
# zgesdd's rwork of 5 min(rows, cols)**2 doubles (2.5 b).
_SVD_PEAK = 8.5


def _check_memory(nbytes: float, subject: str, what: str) -> None:
    """Reject ``what`` before it is allocated if it needs more than physical
    memory; ``subject`` names the sizes at fault and their values."""
    if nbytes > (memory := _physical_memory()):
        gib = nbytes / 2**30 if nbytes < 2**1000 else math.inf  # past the float range
        raise ValidationError(
            f"{subject} needs {gib:,.1f} GiB for {what}, more than "
            f"the {memory / 2**30:,.1f} GiB of physical memory"
        )


def _check_channel_fits(dims, name: str, matrices: int = 0) -> None:
    """Reject a channel of ``dims`` (users, tx_antennas, time_symbols, taps) if the
    larger of two phases would not fit beside it: the kernel's SVD (8.5 kernels) or
    the kernel, its two eigenfunction arrays, one temporary and ``matrices``
    precoding matrices (4 + matrices kernels); ``name`` names its time symbols."""
    l_u, l_up, l_t, l_tau = dims
    kernels, stage = max((_SVD_PEAK, "the kernel's SVD"), (
        4 + matrices, f"the kernel, its eigenfunctions and {matrices} precoding matrices"))
    _check_memory(
        kernels * (l_u * l_t) * (l_up * l_t) * 16 + l_u * l_up * l_t * l_tau * 16,
        f"{name} {l_t}", f"{stage}, {kernels} * (users * time_symbols) * (tx_antennas "
        "* time_symbols) * 16 bytes, and the channel",
    )


def _draw_need(cfg: ScenarioConfig) -> tuple[int, str, str]:
    """:func:`_check_memory`'s arguments for a channel draw.  It peaks at four
    channels of 16 bytes an entry, 256 bytes per (user, antenna, tap, block) of
    sinusoid draws and five arrays of 128 bytes per (antenna, tap, symbol) of
    one user's sinusoid phases."""
    names = ["users", "tx_antennas", "time_symbols", "max_delay_taps"]
    names += ["block_len"] * (cfg.mode == "block")
    l_u, l_up, l_t, l_tau, *_ = dims = tuple(getattr(cfg, f) for f in names)
    blocks = math.ceil(l_t / cfg.block_len) if cfg.mode == "block" else 1
    return (
        64 * l_u * l_up * l_t * l_tau + 256 * l_u * l_up * l_tau * blocks
        + 640 * l_up * l_tau * l_t,
        f"scenario ({', '.join(names)}) = {dims}", "the channel draw",
    )


def _substream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one logical substream of the master seed."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.default_rng(ss)


def _sweep_channel(cfg: ScenarioConfig, master_seed: int, tag: int, c: int) -> ImpulseResponse4D:
    """Channel ``c`` of the draws tagged ``tag``, seeded in [0, 2**63) by substream (tag, c)."""
    return generate_channel(cfg, int(_substream(master_seed, tag, c).integers(0, 2**63)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Channel scenario: dimensions, nonstationarity mode, and statistics.

    All values are validated on construction, and error messages name the
    offending field and its constraint: :func:`checked_fields` checks each
    number field against the interval in its metadata and ``mode`` against
    its choices; ``__post_init__`` adds the rules that relate fields.
    """

    users: int = field(default=4, metadata={"ge": 1})
    tx_antennas: int = field(default=4, metadata={"ge": 1})
    time_symbols: int = field(default=256, metadata={"ge": 1})
    min_delay_taps: int = field(default=1, metadata={"ge": 1})
    max_delay_taps: int = 4  # in [min_delay_taps, time_symbols]
    mode: str = field(default="wssus", metadata={"choices": MODES})
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

    values: np.ndarray = field(metadata={"ndim": 4, "nonempty": True})

    def __post_init__(self):
        checked_fields(self)
        l_t, l_tau = self.values.shape[2:]
        if l_tau > l_t:
            raise ValidationError(f"delay taps ({l_tau}) must not exceed time symbols ({l_t})")

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

    grid: np.ndarray = field(metadata={"ndim": 2, "nonempty": True})

    __post_init__ = checked_fields


def generate_channel(cfg: ScenarioConfig, seed: int) -> ImpulseResponse4D:
    """Draw one channel realization, deterministic in (cfg, seed).

    Every tap process is a unit-power sum of 16 sinusoids.  In "drift" mode
    sinusoid m has the Jakes-style frequency nu_m = doppler_max *
    cos(alpha_m), a linear chirp and a linearly growing power envelope, so
    both the correlation structure and the variance change along the
    horizon (d = doppler_drift):

        g(t) = sqrt(1 + d t) / 4 * sum_m exp(i (theta_m + 2 pi nu_m t (1 + d t / 2)))

    In "block" mode every block of block_len symbols (the last may be
    shorter) has its own integer frequencies k_m in [-k_max, k_max],
    k_max = floor(doppler_max * L_t), and phases, evaluated at the absolute
    symbol t:

        g(t) = 1 / 4 * sum_m exp(i (2 pi k_m t / L_t + theta_m))

    "wssus" is "block" with one block of L_t symbols, so every tap is
    exactly circularly stationary.

    The whole channel is one substream of ``seed``, drawn in this order:
    "drift" draws alphas, then thetas, each uniform in [0, 2 pi) of shape
    (L_u, L_u', L_tau, 16); "wssus" and "block" draw ks, then thetas, each
    of shape (L_u, L_u', L_tau, n_blocks, 16) with n_blocks =
    ceil(L_t / block_len) (1 for "wssus"); then every mode draws the
    per-(u, u') delay spreads, uniform integers in [min_delay_taps,
    max_delay_taps] of shape (L_u, L_u').  Antenna columns are mixed by the
    Cholesky factor of the spatial_corr^|du'| correlation matrix, and the
    first ``spread`` taps of a pair follow the normalized exponential power
    profile exp(-delay_decay * tau); its other taps are zero.  A scenario
    whose draw would not fit in physical memory raises ``ValidationError``
    naming its dims before anything is drawn.
    """
    if not isinstance(cfg, ScenarioConfig):
        raise ValidationError(f"cfg must be a ScenarioConfig, got {type(cfg).__name__}")
    seed = checked_int(seed, "seed", **_MASTER_SEED_RANGE)
    _check_memory(*_draw_need(cfg))
    l_u, l_up = cfg.users, cfg.tx_antennas
    l_t, l_tau = cfg.time_symbols, cfg.max_delay_taps
    draws = (l_u, l_up, l_tau)
    t = np.arange(l_t, dtype=float)
    rng = _substream(seed, _SEED_CHANNEL)

    # phase(u) has shape (L_u', L_tau, L_t, 16): one receive user at a time
    # bounds the temporaries to L_u' * L_tau * L_t * 16 entries
    if cfg.mode == "drift":
        alphas = rng.uniform(0.0, 2.0 * np.pi, size=draws + (_SINUSOIDS_PER_TAP,))
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=draws + (_SINUSOIDS_PER_TAP,))
        nus = cfg.doppler_max * np.cos(alphas)[..., None, :]
        chirp = (t * (1.0 + 0.5 * cfg.doppler_drift * t))[:, None]
        env = np.sqrt(1.0 + cfg.doppler_drift * t)

        def phase(u):
            return thetas[u][..., None, :] + 2.0 * np.pi * (chirp * nus[u])
    else:
        block_len = l_t if cfg.mode == "wssus" else cfg.block_len
        blocks = draws + (math.ceil(l_t / block_len), _SINUSOIDS_PER_TAP)
        k_max = math.floor(cfg.doppler_max * l_t)
        ks = rng.integers(-k_max, k_max + 1, size=blocks).astype(float)
        thetas = rng.uniform(0.0, 2.0 * np.pi, size=blocks)
        block_of = np.arange(l_t) // block_len
        env = 1.0

        def phase(u):
            k, theta = ks[u][:, :, block_of], thetas[u][:, :, block_of]
            return 2.0 * np.pi * (t[:, None] * k) / float(l_t) + theta

    raw = np.empty((l_u, l_up, l_tau, l_t), dtype=np.complex128)
    for u in range(l_u):
        ph = phase(u)
        raw[u] = np.cos(ph).sum(axis=-1) + 1j * np.sin(ph).sum(axis=-1)
    raw = np.swapaxes(raw * (env / math.sqrt(_SINUSOIDS_PER_TAP)), 2, 3)

    # spatial correlation across the transmit-antenna axis
    if cfg.spatial_corr > 0.0 and l_up > 1:
        idx = np.arange(l_up)
        corr = cfg.spatial_corr ** np.abs(idx[:, None] - idx[None, :])
        chol = np.linalg.cholesky(corr)
        raw = np.einsum("ab,ubtk->uatk", chol, raw, optimize=True)

    # per-pair delay spread and normalized exponential power profile
    spreads = rng.integers(cfg.min_delay_taps, cfg.max_delay_taps + 1, size=(l_u, l_up))
    taus = np.arange(l_tau)
    prof = np.exp(-cfg.delay_decay * taus.astype(float)) * (taus < spreads[..., None])
    amp = np.sqrt(prof / prof.sum(axis=-1, keepdims=True))
    return ImpulseResponse4D(_freeze(raw * amp[:, :, None, :]))


def to_kernel(h: ImpulseResponse4D) -> Kernel4D:
    """4-D kernel K[u, t, u', t'] = h[u, u', t, t - t'] for 0 <= t - t' < L_tau.

    Entries outside the delay window are zero; the signal has no history
    before t = 0, so the delay convolution is linear, not circular.  The
    blocks h[:, :, t, tau] are laid out by ``kernels._banded``.
    """
    return Kernel4D(_banded(np.moveaxis(h.values, (3, 2), (0, 1))))


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
        fh.write(payload)  # from the array's buffer, without a copy


def load_ctf(path) -> ImpulseResponse4D:
    """Read a CTF file, validating structure with byte-offset diagnostics.

    The header is checked against the size of a regular file, and the
    payload against physical memory, before the payload is read, so a
    malformed file or an oversized file or pipe costs no more memory than
    its 28-byte header.  Either is read to at most one byte past the
    payload the header declares.
    """
    with open(path, "rb") as fh:
        head = fh.read(_CTF_HEADER.size)
        if len(head) < 8:
            raise FormatError(
                f"file too short for magic: {len(head)} bytes", offset=0
            )
        if head[:8] != _CTF_MAGIC:
            raise FormatError(
                f"bad magic {head[:8]!r}, expected {_CTF_MAGIC!r}", offset=0
            )
        if len(head) < 12:
            raise FormatError("file truncated inside version field", offset=8)
        (version,) = struct.unpack_from("<I", head, 8)
        if version != _CTF_VERSION:
            raise FormatError(
                f"unsupported version {version}, expected {_CTF_VERSION}", offset=8
            )
        if len(head) < _CTF_HEADER.size:
            raise FormatError("file truncated inside dimension header", offset=12)
        l_u, l_up, l_t, l_tau = struct.unpack_from("<4I", head, 12)
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
        st = os.fstat(fh.fileno())
        regular = stat.S_ISREG(st.st_mode)
        held = st.st_size - _CTF_HEADER.size if regular else expected
        if held == expected:
            if expected > (memory := _physical_memory()):
                raise FormatError(
                    f"payload of {expected} bytes declared by dims {dims} exceeds "
                    f"the {memory} bytes of physical memory",
                    offset=_CTF_HEADER.size,
                )
            # read up to one byte past the declared payload: a regular file
            # in one piece, a pipe, which has no size, a piece at a time, so
            # a stream that ends early or never ends costs at most one piece
            # more than it delivered
            step = expected + 1 if regular else _PIPE_PIECE
            pieces, left = [], expected + 1
            while left and (piece := fh.read(min(left, step))):
                pieces.append(piece)
                left -= len(piece)
            payload = b"".join(pieces)  # a lone piece is kept, not copied
            held = len(payload) if len(payload) <= expected else f"more than {expected}"
        if held != expected:
            raise FormatError(
                f"payload holds {held} bytes but dims {dims} require {expected}",
                offset=_CTF_HEADER.size,
            )
    # read-only over immutable bytes, so ImpulseResponse4D keeps it uncopied
    # and its finiteness check is the only pass over the payload
    values = np.frombuffer(payload, dtype="<c16").reshape(dims)
    try:
        return ImpulseResponse4D(values)
    except ValidationError as exc:
        raise FormatError(f"payload rejected: {exc}", offset=_CTF_HEADER.size) from exc
