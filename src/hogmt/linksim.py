"""Modulation, AWGN reference curves, and Monte-Carlo BER sweeps.

A constellation is one Gray-PAM axis of unit average symbol energy, used on
the in-phase axis alone (BPSK) or on both (square QAM), and built from those
bit counts alone.  Demodulation slices each axis on its own against the
midpoints of adjacent levels, exactly the minimum-distance decision for
these separable constellations, whose AWGN curve sums the same bands.

The BER engine compares precoders on identical footing: a sweep draws its
channels once for every SNR point, and per (chunk of trials, modulation)
the data bits and unit-variance noise come from substreams shared by every
precoder and every SNR point, so curves are paired sample-by-sample and
across SNR.  Each precoder is one matrix per channel, built once per
sweep; hogmt(f) depends on f only through its retained mode count, so
precoders keeping as many modes, or of one other kind, share one link,
sent, sliced and counted once and credited to each.  The sweep is
channel-major: it builds one channel's links, runs every modulation's
trials on that channel through them and releases them before it draws the
next channel, so one decomposition is held at a time.  A chunk passes
through each link once, on one BLAS thread (the SVD keeps the library's
count), and each SNR point only scales the noise, adds it and slices.
SNR is received-signal-referenced, E_s / sigma_v^2 with E_s = 1; per-bit
SNR for reference curves is E_s / (k * sigma_v^2) for k bits per symbol.
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
    _check_channel_fits,
    _check_memory,
    _child_seed,
    _substream,
    generate_channel,
    to_kernel,
)
from .errors import DimensionMismatchError, ValidationError
from .kernels import (
    _blas_threads,
    _freeze,
    checked_array,
    checked_fields,
    checked_int,
    checked_real,
    checked_shape,
    flatten_kernel,
    hogmt_decompose,
)
from .precoding import _FRACTION_RANGE, hogmt_map, retained_count, zf_map, zfdpc_map

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

# bytes per data symbol of a chunk, beside one per bit of the sweep's largest
# bits_per_symbol and 16 per precoder's received values: unit noise (16),
# labels (8), symbols (16), one SNR point's noise and noisy copy (32) and the
# slicer's decisions and error counts (<= 40)
_CHUNK_BYTES_PER_SYMBOL = 112


@dataclass(frozen=True)
class ModulationScheme:
    """Gray-mapped unit-energy constellation: one Gray-PAM axis used ``axes`` times.

    The read-only tables follow from the bit counts.  ``levels[label]`` is the
    axis level of a Gray label: rank i of the Gray sequence has label
    i ^ (i >> 1) and level 2*i - (M-1), scaled to unit mean symbol energy, so
    adjacent levels differ in exactly one label bit.  ``points[label]`` is
    the symbol of a bit label (MSB first): the in-phase label, then the
    quadrature one.
    """

    name: str
    # 8 bits an axis cap the point table at 2**16 symbols (1 MiB), so a
    # derived table always fits; 1024-QAM takes 5
    axis_bits: int = field(metadata={"ge": 1, "le": 8})
    axes: int = field(metadata={"ge": 1, "le": 2})  # 1: in-phase only, 2: square QAM

    def __post_init__(self):
        checked_fields(self)
        m = 1 << self.axis_bits
        i = np.arange(m)
        levels = np.empty(m, dtype=float)
        levels[i ^ (i >> 1)] = 2 * i - (m - 1)
        levels /= math.sqrt(self.axes * np.mean(levels**2))
        labels = np.arange(1 << self.bits_per_symbol)  # in-phase label, then quadrature label
        points = levels[labels >> (self.axes - 1) * self.axis_bits] + (
            1j * levels[labels & (m - 1)] if self.axes == 2 else 0j)
        object.__setattr__(self, "levels", _freeze(levels))
        object.__setattr__(self, "points", _freeze(points))

    @property
    def bits_per_symbol(self) -> int:
        return self.axes * self.axis_bits


SCHEMES: dict[str, ModulationScheme] = {s.name: s for s in (
    ModulationScheme("bpsk", 1, 1),
    ModulationScheme("qpsk", 1, 2),
    ModulationScheme("qam16", 2, 2),
    ModulationScheme("qam64", 3, 2),
)}


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


def _axis_regions(levels: np.ndarray):
    """Decision regions of one axis: the Gray label at each amplitude rank,
    the levels in rank order, and the midpoints of adjacent levels a < b as
    ``mid + err == (a + b) / 2`` exactly (two-sum, then an exact halving)."""
    order = np.argsort(levels)
    ranked = levels[order]
    lo, hi = ranked[:-1], ranked[1:]
    total = lo + hi
    hi_part = total - lo
    err = ((lo - (total - hi_part)) + (hi - hi_part)) / 2
    return order, ranked, total / 2, err


def _slicer(scheme: ModulationScheme):
    """Minimum-distance symbol labels of complex values, one axis at a time.

    Each axis decides the nearest level's Gray label.  A value v lies above
    the midpoint of adjacent levels iff v - (mid + err) > 0, and v - mid is
    exact wherever it is close to err (Sterbenz), so comparing it with err
    decides exactly, also for values far outside the constellation.  An
    exact tie needs err == 0, which for these symmetric levels happens only
    at 0; it goes to the lower level, which there carries the lower label
    (reflected Gray code), as an argmin over the label-ordered points would
    pick.
    """
    order, _, mid, err = _axis_regions(scheme.levels)
    pairs = list(zip(mid.tolist(), err.tolist()))

    def decide(v):
        rank = np.zeros(v.shape, dtype=np.intp)  # midpoints below v
        for m, e in pairs:
            rank += v - m > e
        return order[rank]

    if scheme.axes == 1:
        return lambda r: decide(r.real)
    return lambda r: (decide(r.real) << scheme.axis_bits) | decide(r.imag)


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
    dims = checked_shape(dims, "dims", 2)
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
    every (sent, decided) level pair, with the slicer's decision regions.
    A band above the sent level is a difference of upper tails, any other
    one of lower tails, so none rounds to 0 as 1 - (1 - eps).
    """
    from scipy.special import ndtr  # here, so that importing hogmt skips SciPy
    order, ranked, mid, _ = _axis_regions(levels)
    # band[s, d]: probability that the level of rank s is decided as rank d
    z = (mid - ranked[:, None]) / sigma
    below = np.diff(ndtr(z), axis=1, prepend=0.0, append=1.0)
    above = -np.diff(ndtr(-z), axis=1, prepend=1.0, append=0.0)
    band = np.where(np.tri(levels.size, dtype=bool), below, above)  # below: d <= s
    return float((band * np.bitwise_count(order[:, None] ^ order)).sum()) / levels.size


def theoretical_awgn_ber(scheme, snr_per_bit_db: float) -> float:
    """Exact AWGN bit error rate of the Gray constellation at a per-bit SNR.

    Per-axis nearest-level decisions are the true minimum-distance rule for
    these separable constellations, so the band-probability sum is exact,
    not a nearest-neighbor approximation, in both tails.
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
    return scheme.axes * _axis_bit_errors(scheme.levels, sigma) / k


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
    """The distinct links of one channel draw, each (flattened kernel,
    precoding matrix, indices of the specs using it): hogmt(f) depends on f
    only through its retained mode count, so specs keeping as many modes
    share a link, as do specs of one other kind.  The ideal link has no
    kernel, and "none"/"ideal" have no matrix."""
    if all(sp.kind == "ideal" for sp in specs):
        return [(None, None, list(range(len(specs))))]
    h = generate_channel(cfg, seed)
    kernel = to_kernel(h)
    flat = flatten_kernel(kernel)
    decomp = hogmt_decompose(kernel) if any(sp.kind == "hogmt" for sp in specs) else None
    links = {}
    for pi, spec in enumerate(specs):
        hogmt = spec.kind == "hogmt"
        key = retained_count(decomp.sigmas, spec.fraction) if hogmt else spec.kind
        if key not in links:
            build = {"zf": zf_map, "zfdpc": zfdpc_map}.get(spec.kind)
            pmap = hogmt_map(decomp, spec.fraction) if hogmt else build(h) if build else None
            links[key] = (None if spec.kind == "ideal" else flat, pmap, [])
        links[key][2].append(pi)
    return list(links.values())


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


@_blas_threads(1)
def _run_channel(links, c, schemes, slicers, n_trials, scales, seed, dims, errors, tx_sum):
    """Send trials c, c + _N_CHANNELS, ... of every modulation over one channel's links.

    Adds each link's counts into ``errors`` (precoder, modulation, SNR) and
    ``tx_sum`` (precoder, modulation) of each precoder using it, in chunks of
    a number of trials that only the scenario dims set, on one BLAS thread
    (the products are small).  Once this returns, nothing refers to the links.
    """
    chunk = max(1, _CHUNK_SYMBOLS // (dims[0] * dims[1]))
    for mi, (scheme, slicer) in enumerate(zip(schemes, slicers)):
        k = scheme.bits_per_symbol
        trials = range(c, n_trials[mi], _N_CHANNELS)
        for lo in range(0, len(trials), chunk):
            n = len(trials[lo : lo + chunk])
            bits, unit_noise = _chunk_draws(seed, mi, trials[lo], n, k, dims)
            sent = _labels(bits, k)
            s = scheme.points[sent]  # (n, L_u * L_t), one flattened grid per trial
            received = []
            for flat, pmap, pis in links:
                x = s if pmap is None else s @ pmap.T
                received.append((pis, x if flat is None else x @ flat.T))
                tx_sum[pis, mi] += np.mean(np.abs(x) ** 2, axis=1).sum()
            for si, scale in enumerate(scales):
                noise = scale * unit_noise
                for pis, r in received:
                    errors[pis, mi, si] += int(np.bitwise_count(slicer(r + noise) ^ sent).sum())


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
    block; trials c, c + 2, ... run on channel c, drawn once per sweep and
    keyed by c, and each chunk of trials draws its bits and unit noise once,
    keyed by its first trial and modulation, so SNR points, precoders and
    modulations are paired as the module docstring describes.  A point's
    counts depend neither on the other SNR values nor, since the chunk size
    follows from the scenario dims alone, on which precoders run beside it.
    A precoder that cannot be built on a channel raises its error
    (``DegenerateChannelError``, ``NumericalError``) and no report is
    returned.  Before anything is drawn, a scenario whose kernel's SVD or
    precoding matrices (any precoder but ``ideal``) or one trial's arrays
    would not fit in physical memory raises ``ValidationError`` naming
    ``scenario.time_symbols``; a ``none`` (data grid sent as is) or
    ``zfdpc`` (square per-instant inverses) precoder with users !=
    tx_antennas raises ``DimensionMismatchError``.
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
    square = [sp.kind for sp in specs if sp.kind in ("none", "zfdpc")]
    if scenario.users != scenario.tx_antennas and square:
        raise DimensionMismatchError(
            f"precoder {square[0]!r} needs users == tx_antennas, got "
            f"users={scenario.users}, tx_antennas={scenario.tx_antennas}"
        )
    dims = (scenario.users, scenario.time_symbols)
    n_sym = dims[0] * dims[1]
    # checked before anything is drawn; the ideal link builds no kernel, the
    # links hold at most one matrix per hogmt, zf or zfdpc precoder, and a chunk
    # is one trial once n_sym >= _CHUNK_SYMBOLS, at most that many below
    if any(sp.kind != "ideal" for sp in specs):
        _check_channel_fits((scenario.users, scenario.tx_antennas, scenario.time_symbols,
                             scenario.max_delay_taps), "scenario.time_symbols",
                            sum(sp.kind not in ("none", "ideal") for sp in specs))
    k_max = max(sc.bits_per_symbol for sc in schemes)
    _check_memory(
        (_CHUNK_BYTES_PER_SYMBOL + k_max + 16 * len(specs)) * n_sym,
        f"scenario.time_symbols {dims[1]}", "one trial's bits, noise and received values, "
        f"({_CHUNK_BYTES_PER_SYMBOL} + {k_max} bits + 16 * precoders) * users * time_symbols bytes",
    )
    n_trials = [math.ceil(min_bits / (sc.bits_per_symbol * n_sym)) for sc in schemes]
    slicers = [_slicer(scheme) for scheme in schemes]
    errors = np.zeros((len(specs), len(schemes), len(snr_list)), dtype=np.int64)
    tx_sum = np.zeros((len(specs), len(schemes)))
    # channel-major (see the module docstring): each cell adds channel 0's chunks first
    for c in range(min(_N_CHANNELS, max(n_trials))):
        _run_channel(
            _links(scenario, _child_seed(seed, _SEED_BER_CHANNEL, c), specs),
            c, schemes, slicers, n_trials, scales, seed, dims, errors, tx_sum,
        )

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
