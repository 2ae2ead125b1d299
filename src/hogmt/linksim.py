"""Modulation, AWGN reference curves, and Monte-Carlo BER sweeps.

Constellations are Gray-mapped with unit average energy, built as separable
per-axis Gray PAM (one axis for BPSK).  Demodulation slices each axis on its
own against the midpoints of adjacent levels, which for these separable
constellations is exactly the minimum-distance decision.

The BER engine compares precoders on identical footing: a sweep draws its
channels once for every SNR point, and per (chunk of trials, modulation)
the data bits and unit-variance noise come from substreams shared by every
precoder and every SNR point, so curves are paired sample-by-sample and
across SNR.  Each precoder is one matrix per channel, built once per
sweep; a chunk passes through each link once, and each SNR point only
scales the noise, adds it and slices.  SNR is received-signal-referenced,
E_s / sigma_v^2 with E_s = 1; per-bit SNR for reference curves is
E_s / (k * sigma_v^2) for k bits per symbol.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    _SEED_BER_BITS,
    _SEED_BER_CHANNEL,
    _SEED_BER_NOISE,
    ScenarioConfig,
    SpaceTimeSignal,
    _child_seed,
    _substream,
    generate_channel,
    to_kernel,
)
from .errors import DimensionMismatchError, ValidationError
from .kernels import (
    checked_array,
    checked_fields,
    checked_int,
    checked_real,
    flatten_kernel,
    hogmt_decompose,
)
from .precoding import _FRACTION_RANGE, hogmt_map, zf_map, zfdpc_map

__all__ = [
    "MIN_BITS_FLOOR",
    "ModulationScheme",
    "SCHEMES",
    "get_scheme",
    "modulate",
    "demodulate",
    "theoretical_awgn_ber",
    "PrecoderSpec",
    "parse_precoder",
    "BerPoint",
    "BerReport",
    "run_ber",
]

MIN_BITS_FLOOR = 10_000

# symbols per chunk of trials in run_ber: bounds memory and keys the bit and
# noise substreams, so changing it changes every BER number
_CHUNK_SYMBOLS = 1 << 14

# channel realizations per sweep: trial t runs on channel t % _N_CHANNELS
_N_CHANNELS = 2

_POPCOUNT = np.array([bin(v).count("1") for v in range(64)])  # labels have <= 6 bits


def _gray_pam_levels(n_bits: int) -> np.ndarray:
    """Unnormalized PAM levels indexed by the Gray label (MSB first).

    Rank i of the Gray sequence has label i ^ (i >> 1) and level 2*i - (M-1),
    so adjacent levels differ in exactly one label bit.
    """
    m = 1 << n_bits
    i = np.arange(m)
    levels = np.empty(m, dtype=float)
    levels[i ^ (i >> 1)] = 2 * i - (m - 1)
    return levels


@dataclass(frozen=True)
class ModulationScheme:
    """Gray-mapped unit-energy constellation with separable axes.

    ``points[label]`` is the symbol whose bit label (MSB first) splits into
    ``i_bits`` in-phase bits followed by ``q_bits`` quadrature bits.
    """

    name: str
    i_bits: int
    q_bits: int
    points: np.ndarray
    i_levels: np.ndarray  # normalized per-axis levels indexed by axis Gray label
    q_levels: np.ndarray  # empty for single-axis schemes

    @property
    def bits_per_symbol(self) -> int:
        return self.i_bits + self.q_bits


def _build_scheme(name: str, i_bits: int, q_bits: int) -> ModulationScheme:
    i_lv = _gray_pam_levels(i_bits)
    q_lv = _gray_pam_levels(q_bits) if q_bits else np.zeros(1)
    mean_energy = np.mean(i_lv**2) + (np.mean(q_lv**2) if q_bits else 0.0)
    scale = math.sqrt(mean_energy)
    i_lv = i_lv / scale
    q_lv = q_lv / scale
    k = i_bits + q_bits
    labels = np.arange(1 << k)
    i_label = labels >> q_bits
    q_label = labels & ((1 << q_bits) - 1)
    points = i_lv[i_label] + 1j * q_lv[q_label]
    return ModulationScheme(
        name=name,
        i_bits=i_bits,
        q_bits=q_bits,
        points=points,
        i_levels=i_lv,
        q_levels=q_lv if q_bits else np.empty(0),
    )


SCHEMES: dict[str, ModulationScheme] = {
    "bpsk": _build_scheme("bpsk", 1, 0),
    "qpsk": _build_scheme("qpsk", 1, 1),
    "qam16": _build_scheme("qam16", 2, 2),
    "qam64": _build_scheme("qam64", 3, 3),
}


def get_scheme(name) -> ModulationScheme:
    if isinstance(name, ModulationScheme):
        return name
    key = str(name).lower()
    if key not in SCHEMES:
        raise ValidationError(
            f"unknown modulation {name!r}; choose from {sorted(SCHEMES)}"
        )
    return SCHEMES[key]


def _labels(bits: np.ndarray, k: int) -> np.ndarray:
    """Symbol labels of a bit array whose last axis holds k-bit groups, MSB first."""
    weights = 1 << np.arange(k - 1, -1, -1)
    return bits.reshape(bits.shape[:-1] + (-1, k)) @ weights


def _axis_slicer(levels: np.ndarray):
    """Nearest-level decision on one axis, returning the level's Gray label.

    A value v lies above the midpoint of adjacent levels a < b iff
    v - (a + b) / 2 > 0.  With (a + b) / 2 == mid + err exactly (two-sum,
    then an exact halving), v - mid is exact wherever it is close to err
    (Sterbenz), so comparing it with err decides exactly, also for values
    far outside the constellation.  An exact tie needs err == 0, which for
    these symmetric levels happens only at 0; it goes to the lower level,
    which there carries the lower label (reflected Gray code), as an argmin
    over the label-ordered points would pick.
    """
    order = np.argsort(levels)
    lo, hi = levels[order[:-1]], levels[order[1:]]
    total = lo + hi
    hi_part = total - lo
    mid = total / 2
    err = ((lo - (total - hi_part)) + (hi - hi_part)) / 2
    pairs = list(zip(mid.tolist(), err.tolist()))

    def decide(v):
        rank = np.zeros(v.shape, dtype=np.intp)  # midpoints below v
        for m, e in pairs:
            rank += v - m > e
        return order[rank]

    return decide


def _slicer(scheme: ModulationScheme):
    """Minimum-distance symbol labels of complex values, one axis at a time."""
    decide_i = _axis_slicer(scheme.i_levels)
    if not scheme.q_bits:
        return lambda r: decide_i(r.real)
    decide_q = _axis_slicer(scheme.q_levels)
    return lambda r: (decide_i(r.real) << scheme.q_bits) | decide_q(r.imag)


def modulate(bits, scheme, dims: tuple[int, int]) -> SpaceTimeSignal:
    """Map a bit array onto a space-time grid of constellation symbols.

    The bit count must be exactly bits_per_symbol * dims[0] * dims[1]; the
    grid is filled row-major (time index fastest), MSB of each symbol first.
    """
    scheme = get_scheme(scheme)
    bits = np.asarray(bits).ravel()
    if bits.dtype.kind not in "biuf" or not np.all((bits == 0) | (bits == 1)):
        raise ValidationError("bits must be 0 or 1")
    k = scheme.bits_per_symbol
    dims = tuple(checked_int(d, "dims", ge=1) for d in dims)
    n_sym = dims[0] * dims[1]
    if bits.size != k * n_sym:
        raise ValidationError(
            f"need exactly {k * n_sym} bits for a {dims} grid of "
            f"{scheme.name}, got {bits.size}"
        )
    labels = _labels(bits.astype(np.uint8), k)
    return SpaceTimeSignal(grid=scheme.points[labels].reshape(dims))


def demodulate(r, scheme) -> np.ndarray:
    """Minimum-distance demodulation back to a flat bit array (MSB first)."""
    scheme = get_scheme(scheme)
    grid = checked_array(np.ravel(getattr(r, "grid", r)), 1, "received values")
    labels = _slicer(scheme)(grid)
    k = scheme.bits_per_symbol
    shifts = np.arange(k - 1, -1, -1)
    return ((labels[:, None] >> shifts[None, :]) & 1).astype(np.uint8).ravel()


def _noise_variance(snr_db: float) -> float:
    """Noise variance 10**(-snr_db/10) at unit symbol energy, which must be finite."""
    snr_db = checked_real(snr_db, "snr_db", le=math.inf)  # +inf is the noiseless point
    try:
        sigma2 = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        sigma2 = math.inf
    if not math.isfinite(sigma2):
        raise ValidationError(f"snr_db {snr_db} gives no finite noise variance")
    return sigma2


def _axis_bit_errors(levels: np.ndarray, sigma: float) -> float:
    """Expected bit errors per axis use for Gray PAM in Gaussian noise.

    Exact: sums decision-band probabilities times Hamming distances over
    every (sent, decided) level pair.
    """
    from scipy.special import ndtr  # here, so that importing hogmt skips SciPy
    order = np.argsort(levels)
    sorted_lv = levels[order]
    thresholds = 0.5 * (sorted_lv[:-1] + sorted_lv[1:])
    m = levels.size
    total = 0.0
    for si in range(m):
        upper = np.concatenate([ndtr((thresholds - sorted_lv[si]) / sigma), [1.0]])
        lower = np.concatenate([[0.0], upper[:-1]])
        band = upper - lower
        ham = _POPCOUNT[order[si] ^ order]
        for di in np.flatnonzero(ham):
            total += band[di] * ham[di]
    return total / m


def theoretical_awgn_ber(scheme, snr_per_bit_db: float) -> float:
    """Exact AWGN bit error rate of the Gray constellation at a per-bit SNR.

    Per-axis nearest-level decisions are the true minimum-distance rule for
    these separable constellations, so the band-probability sum is exact,
    not a nearest-neighbor approximation.
    """
    scheme = get_scheme(scheme)
    k = scheme.bits_per_symbol
    snr_per_bit_db = checked_real(snr_per_bit_db, "snr_per_bit_db", le=math.inf)
    try:
        gamma_b = 10.0 ** (snr_per_bit_db / 10.0)
    except OverflowError:
        return 0.0
    if gamma_b == math.inf:
        return 0.0
    # a linear SNR that underflows to 0 is the infinite-noise limit
    sigma = math.sqrt(1.0 / (2.0 * k * gamma_b)) if gamma_b > 0.0 else math.inf
    total = _axis_bit_errors(scheme.i_levels, sigma)
    if scheme.q_bits:
        total += _axis_bit_errors(scheme.q_levels, sigma)
    return total / k


_PRECODER_RE = re.compile(r"^hogmt\(([^)]*)\)$")
_PLAIN_KINDS = ("zf", "zfdpc", "none", "ideal")


@dataclass(frozen=True)
class PrecoderSpec:
    """Which precoder to run; ``fraction`` is the retained-mode fraction."""

    kind: str = field(metadata={"choices": ("hogmt",) + _PLAIN_KINDS})
    fraction: float = field(default=1.0, metadata=_FRACTION_RANGE)

    __post_init__ = checked_fields


def parse_precoder(text) -> PrecoderSpec:
    """Parse "hogmt", "hogmt(0.99)", "zf", "zfdpc", "none" or "ideal"."""
    if isinstance(text, PrecoderSpec):
        return text
    s = text.strip().lower() if isinstance(text, str) else ""  # None is not "none"
    if s == "hogmt":
        return PrecoderSpec("hogmt", 1.0)
    m = _PRECODER_RE.match(s)
    if m:
        try:
            frac = float(m.group(1))
        except ValueError:
            raise ValidationError(
                f"bad retained-mode fraction in precoder spec {text!r}"
            ) from None
        return PrecoderSpec("hogmt", frac)
    if s in _PLAIN_KINDS:
        return PrecoderSpec(s)
    raise ValidationError(
        f"unknown precoder {text!r}; expected hogmt[(fraction)], zf, zfdpc, "
        "none or ideal"
    )


@dataclass(frozen=True)
class BerPoint:
    """One measured point of a BER sweep.

    :func:`run_ber` measures every point it returns, so its ``bits`` are
    positive; a point with ``bits`` = 0 measured nothing and counts as
    ``failed``.
    """

    snr_db: float
    precoder: str
    modulation: str
    fraction: float
    bits: int
    errors: int
    ber: float
    tx_energy: float

    @property
    def failed(self) -> bool:
        return self.bits == 0


@dataclass(frozen=True)
class BerReport:
    """All points of a sweep, one per (snr, precoder, modulation, fraction)."""

    points: tuple[BerPoint, ...]


def _links(cfg: ScenarioConfig, seed: int, specs) -> list[tuple]:
    """Each precoder's (flattened kernel, precoding matrix) on one channel draw.

    The ideal link has no kernel, and "none"/"ideal" have no matrix.
    """
    if all(sp.kind == "ideal" for sp in specs):
        return [(None, None)] * len(specs)
    h = generate_channel(cfg, seed)
    kernel = to_kernel(h)
    flat = flatten_kernel(kernel)
    needs_decomp = any(sp.kind == "hogmt" for sp in specs)
    decomp = hogmt_decompose(kernel) if needs_decomp else None
    links = []
    for spec in specs:
        if spec.kind == "hogmt":
            pmap = hogmt_map(decomp, spec.fraction)
        else:
            build = {"zf": zf_map, "zfdpc": zfdpc_map}.get(spec.kind)
            pmap = build(h) if build else None
        links.append((None if spec.kind == "ideal" else flat, pmap))
    return links


def _chunk_draws(seed, mi, first, n, k, dims):
    """Data bits and unit-variance noise of a chunk of n trials, one row per trial.

    The chunk whose first trial is ``first`` has one bit and one noise
    substream, each drawn in one call and shared by every SNR point.
    """
    bits = _substream(seed, _SEED_BER_BITS, first, mi).integers(
        0, 2, size=(n, k * dims[0] * dims[1]), dtype=np.uint8
    )
    normals = _substream(seed, _SEED_BER_NOISE, first, mi).standard_normal((2, n) + dims)
    return bits, ((normals[0] + 1j * normals[1]) / math.sqrt(2.0)).reshape(n, -1)


def run_ber(
    scenario: ScenarioConfig,
    precoders,
    snr_db,
    min_bits: int,
    seed: int,
    modulations=("qam16",),
) -> BerReport:
    """Monte-Carlo BER sweep over SNR points, precoders, and modulations.

    Noise variance per point is 10**(-snr_db/10), referencing the received
    signal (unit symbol energy).  Each trial spans one (users, time_symbols)
    block; trials rotate over two channel realizations, drawn once per
    sweep (keyed by channel index) and shared by every SNR point, precoder
    and modulation, as are the data bits and the noise of each trial, so
    comparisons are paired.  Per channel, each precoder is built once as a
    matrix P, and a precoder that cannot be built on a channel raises its
    error (``DegenerateChannelError``, ``NumericalError``).  Each chunk of
    trials draws its bits and unit noise once, from substreams keyed by its
    first trial and modulation, and is precoded as S @ P.T and sent through
    every link's kernel once; each SNR point then only scales the noise,
    adds it and slices.  A point's counts therefore do not depend on the
    other SNR values, and since the chunk size follows from the scenario
    dims alone, not on which precoders run beside each other either.
    """
    if isinstance(precoders, (str, PrecoderSpec)):
        precoders = [precoders]
    specs = [parse_precoder(p) for p in precoders]
    if not specs:
        raise ValidationError("need at least one precoder")
    if isinstance(modulations, (str, ModulationScheme)):
        modulations = [modulations]
    schemes = [get_scheme(m) for m in modulations]
    if not schemes:
        raise ValidationError("need at least one modulation")
    snr_list = list(snr_db) if np.ndim(snr_db) else [snr_db]
    if not snr_list:
        raise ValidationError("need at least one SNR point")
    # noise scale per SNR point; 0 at +inf dB, where r + 0 * noise == r
    scales = [math.sqrt(_noise_variance(v)) for v in snr_list]
    min_bits = checked_real(min_bits, "min_bits", ge=MIN_BITS_FLOOR)
    seed = checked_int(seed, "seed", ge=0, lt=2**64)
    if scenario.users != scenario.tx_antennas and any(sp.kind == "none" for sp in specs):
        raise DimensionMismatchError(
            "precoder 'none' sends the data grid as is, so it needs users == "
            f"tx_antennas, got users={scenario.users}, "
            f"tx_antennas={scenario.tx_antennas}"
        )
    dims = (scenario.users, scenario.time_symbols)
    n_sym = dims[0] * dims[1]
    n_trials = [math.ceil(min_bits / (sc.bits_per_symbol * n_sym)) for sc in schemes]
    channels = []
    for c in range(min(_N_CHANNELS, max(n_trials))):
        ch_seed = _child_seed(seed, _SEED_BER_CHANNEL, c)
        channels.append(_links(scenario, ch_seed, specs))

    # trial t of a modulation runs on the links channels[t % _N_CHANNELS], in
    # chunks of a number of trials that only the scenario dims set
    chunk = max(1, _CHUNK_SYMBOLS // n_sym)
    errors = np.zeros((len(specs), len(schemes), len(snr_list)), dtype=np.int64)
    tx_sum = np.zeros((len(specs), len(schemes)))
    for mi, scheme in enumerate(schemes):
        k = scheme.bits_per_symbol
        slicer = _slicer(scheme)
        for c in range(min(_N_CHANNELS, n_trials[mi])):
            trials = range(c, n_trials[mi], _N_CHANNELS)
            for lo in range(0, len(trials), chunk):
                n = len(trials[lo : lo + chunk])
                bits, unit_noise = _chunk_draws(seed, mi, trials[lo], n, k, dims)
                sent = _labels(bits, k)
                s = scheme.points[sent]  # (n, L_u * L_t), one flattened grid per trial
                received = []
                for pi, (flat, pmap) in enumerate(channels[c]):
                    x = s if pmap is None else s @ pmap.T
                    received.append((pi, x if flat is None else x @ flat.T))
                    tx_sum[pi, mi] += np.mean(np.abs(x) ** 2, axis=1).sum()
                for si, scale in enumerate(scales):
                    noise = scale * unit_noise
                    for pi, r in received:
                        got = slicer(r + noise)
                        errors[pi, mi, si] += _POPCOUNT[got ^ sent].sum()

    points: list[BerPoint] = []
    for si, snr in enumerate(snr_list):
        for pi, spec in enumerate(specs):
            for mi, scheme in enumerate(schemes):
                nbits = n_trials[mi] * scheme.bits_per_symbol * n_sym
                n_err = int(errors[pi, mi, si])
                points.append(
                    BerPoint(
                        snr_db=float(snr),
                        precoder=spec.kind,
                        modulation=scheme.name,
                        fraction=spec.fraction,
                        bits=nbits,
                        errors=n_err,
                        ber=n_err / nbits,
                        tx_energy=float(tx_sum[pi, mi]) / n_trials[mi],
                    )
                )
    return BerReport(points=tuple(points))
