"""The input boundary: every public array field is checked and frozen (copied
unless it is already frozen), every choice field takes only its listed values,
and every public scalar argument is checked for type, finiteness and range."""

import dataclasses
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import hogmt as H
from hogmt import cli
from hogmt.cli import SimConfig, StatsConfig, complexity_estimate
from hogmt.errors import DimensionMismatchError, ValidationError
from hogmt.kernels import _freeze, checked_array, checked_int, checked_real
from hogmt.precoding import hogmt_map, retained_count


def valid_kwargs(cls):
    """Fresh keyword arguments that build a valid ``cls``; arrays owned by the caller."""
    rng = np.random.default_rng(0)

    def c(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return {
        H.Kernel4D: lambda: dict(values=c(2, 3, 2, 3)),
        H.ImpulseResponse4D: lambda: dict(values=c(2, 2, 3, 2)),
        H.SpaceTimeSignal: lambda: dict(grid=c(2, 3)),
        H.EigenDecomposition: lambda: dict(
            sigmas=np.array([2.0, 1.0]), psis=c(2, 1, 2), phis=c(2, 1, 2),
            source_dims=(1, 2, 1, 2),
        ),
        H.CoefficientSet: lambda: dict(
            x_coeffs=c(2), s_coeffs=c(2), dropped_energy=0.5
        ),
        H.StationarityReport: lambda: dict(intervals=np.array([1.0, 2.0, 3.0])),
    }[cls]()


FIELDS = [
    (H.Kernel4D, "values"),
    (H.ImpulseResponse4D, "values"),
    (H.SpaceTimeSignal, "grid"),
    (H.EigenDecomposition, "sigmas"),
    (H.EigenDecomposition, "psis"),
    (H.EigenDecomposition, "phis"),
    (H.CoefficientSet, "x_coeffs"),
    (H.CoefficientSet, "s_coeffs"),
    (H.StationarityReport, "intervals"),
]
FIELD_IDS = [f"{cls.__name__}.{field}" for cls, field in FIELDS]


def test_fields_lists_every_declared_array_field():
    # a new array field joins the tests below by its declaration alone
    public = [getattr(H, n) for n in H.__all__] + [getattr(cli, n) for n in cli.__all__]
    declared = {
        (cls, f.name)
        for cls in public
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        for f in dataclasses.fields(cls)
        if "ndim" in f.metadata
    }
    assert declared == set(FIELDS)


@pytest.mark.parametrize("cls,field", FIELDS, ids=FIELD_IDS)
class TestArrayFields:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_naming_the_field(self, cls, field, bad):
        kw = valid_kwargs(cls)
        kw[field] = np.array(kw[field])
        kw[field].flat[-1] = bad
        with pytest.raises(ValidationError, match=rf"\b{field}\b"):
            cls(**kw)

    def test_wrong_ndim_rejected(self, cls, field):
        kw = valid_kwargs(cls)
        kw[field] = np.asarray(kw[field])[..., np.newaxis]
        with pytest.raises(ValidationError, match=rf"\b{field}\b"):
            cls(**kw)

    def test_stored_array_is_a_frozen_copy(self, cls, field):
        kw = valid_kwargs(cls)
        before = np.array(kw[field])
        stored = getattr(cls(**kw), field)
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[(0,) * stored.ndim] = 7
        kw[field][...] = 7  # the caller's array changes afterwards
        np.testing.assert_array_equal(stored, before)

    def test_frozen_owning_array_is_kept_as_it_is(self, cls, field):
        kw = valid_kwargs(cls)
        dtype = getattr(cls(**kw), field).dtype
        frozen = np.array(kw[field], dtype=dtype)
        frozen.flags.writeable = False
        kw[field] = frozen
        assert np.shares_memory(getattr(cls(**kw), field), frozen)

    def test_read_only_view_of_a_writeable_array_is_copied(self, cls, field):
        kw = valid_kwargs(cls)
        dtype = getattr(cls(**kw), field).dtype
        base = np.array(kw[field], dtype=dtype)
        view = base[...]
        view.flags.writeable = False
        kw[field] = view
        stored = getattr(cls(**kw), field)
        assert not np.shares_memory(stored, base)
        before = base.copy()
        base[...] = 7  # the writeable base changes afterwards
        np.testing.assert_array_equal(stored, before)

    def test_complex_entries_need_a_complex_field(self, cls, field):
        kw = valid_kwargs(cls)
        real_field = np.asarray(kw[field]).dtype.kind != "c"
        kw[field] = 1j * np.asarray(kw[field])
        if real_field:  # the imaginary part is never dropped
            with pytest.raises(ValidationError, match=rf"\b{field}\b.*imaginary"):
                cls(**kw)
        else:
            np.testing.assert_array_equal(getattr(cls(**kw), field), kw[field])


def test_fractional_entries_of_an_integer_field_rejected():
    with pytest.raises(ValidationError, match=r"\bintervals\b.*fractional"):
        H.StationarityReport(intervals=[1.5, 2.9])
    stored = H.StationarityReport(intervals=[1.0, 2.0]).intervals
    assert stored.dtype == int and stored.tolist() == [1, 2]


CHOICES = [
    ("ScenarioConfig.mode", ("wssus", "block", "drift"), lambda v: H.ScenarioConfig(mode=v)),
    ("PrecoderSpec.kind", ("hogmt", "zf", "zfdpc", "none", "ideal"), H.PrecoderSpec),
    ("cmd.side", ("tx", "rx"),
     lambda v: H.cmd(H.ImpulseResponse4D(np.ones((1, 1, 2, 1))), side=v, window=2)),
]


@pytest.mark.parametrize("field,choices,call", CHOICES, ids=[c[0] for c in CHOICES])
@pytest.mark.parametrize("bad", ["bogus", None, 1, np.array(["tx", "rx"])])
def test_value_outside_the_choices_rejected(field, choices, call, bad):
    name = field.split(".")[1]
    message = f"{name} must be one of {choices}, got {bad!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(bad)
    for good in choices:
        # a type stores the value it takes; cmd only checks its argument
        assert getattr(call(good), name, good) == good


def test_array_over_immutable_bytes_is_kept_and_over_a_bytearray_copied():
    payload = np.arange(24, dtype=complex).tobytes()
    kept = np.frombuffer(payload, dtype=complex).reshape(2, 2, 3, 2)
    assert H.ImpulseResponse4D(kept).values is kept
    buffer = bytearray(payload)
    flat = np.frombuffer(buffer, dtype=complex)
    flat.flags.writeable = False  # read-only down to the mutable buffer
    shared = flat.reshape(2, 2, 3, 2)
    stored = H.ImpulseResponse4D(shared).values
    buffer[:16] = bytes(16)  # the mutable buffer changes afterwards
    assert stored[0, 0, 0, 0] == 0 and stored[0, 0, 0, 1] == 1
    assert not np.shares_memory(stored, shared)


def test_empty_grid_rejected():
    with pytest.raises(ValidationError, match="dims >= 1"):
        H.SpaceTimeSignal(grid=np.zeros((0, 4), dtype=complex))


def _kernel(shape, value=1.0):
    return H.Kernel4D(np.full(shape, value, dtype=complex))


def _eigen(sigmas, n_psis):
    return H.EigenDecomposition(
        sigmas=sigmas, psis=np.ones((n_psis, 1, 2)), phis=np.ones((len(sigmas), 1, 2)),
        source_dims=(1, 2, 1, 2),
    )


_SQUARE = H.ScenarioConfig(users=2, tx_antennas=2, time_symbols=4)

# (id, error, message, call): arguments that each pass their own checks but
# not together, each rejected with the error and message that name why
INCONSISTENT = [
    ("ImpulseResponse4D-taps", ValidationError,
     r"delay taps \(3\) must not exceed time symbols \(2\)",
     lambda: H.ImpulseResponse4D(np.ones((1, 1, 2, 3)))),
    ("EigenDecomposition-mode-counts", DimensionMismatchError,
     "mode counts disagree: 2 sigmas, 1 psis, 2 phis", lambda: _eigen([2.0, 1.0], 1)),
    ("EigenDecomposition-negative-sigma", ValidationError,
     "sigmas must be nonnegative", lambda: _eigen([1.0, -1.0], 2)),
    ("duality_residual-empty", ValidationError, "duality residual of an empty decomposition",
     lambda: H.duality_residual(_kernel((1, 2, 1, 2)),
                                H.hogmt_decompose(_kernel((1, 2, 1, 2), 0.0)))),
    ("duality_residual-dims", DimensionMismatchError,
     r"decomposition dims \(1, 3, 1, 3\) do not match kernel dims \(1, 2, 1, 2\)",
     lambda: H.duality_residual(_kernel((1, 2, 1, 2)), H.hogmt_decompose(_kernel((1, 3, 1, 3))))),
    ("energy_report-modes", DimensionMismatchError,
     "coefficient set retains 2 modes but the decomposition has only 1",
     lambda: H.energy_report(
         H.hogmt_decompose(_kernel((1, 2, 1, 2))),
         H.CoefficientSet(x_coeffs=[1j, 2j], s_coeffs=[1, 2], dropped_energy=0),
     )),
    ("zfdpc_map-non-square", DimensionMismatchError,
     "dirty-paper baseline needs square per-instant matrices, got 2x3",
     lambda: H.zfdpc_map(H.ImpulseResponse4D(np.ones((2, 3, 4, 1))))),
    ("stats_from_decomp-empty-member", ValidationError,
     "ensemble contains an empty decomposition",
     lambda: H.stats_from_decomp(None, ensemble=[_eigen([], 0)])),
    ("run_ber-no-precoder", ValidationError, "need at least one precoder",
     lambda: H.run_ber(_SQUARE, [], [0.0], 10_000, seed=1)),
    ("run_ber-no-modulation", ValidationError, "need at least one modulation",
     lambda: H.run_ber(_SQUARE, "ideal", [0.0], 10_000, seed=1, modulations=[])),
    ("run_ber-no-snr-point", ValidationError, "need at least one SNR point",
     lambda: H.run_ber(_SQUARE, "ideal", [], 10_000, seed=1)),
]


@pytest.mark.parametrize("error,message,call", [case[1:] for case in INCONSISTENT],
                         ids=[case[0] for case in INCONSISTENT])
def test_inconsistent_arguments_rejected(error, message, call):
    with pytest.raises(error, match=f"^{message}$") as info:
        call()
    assert type(info.value) is error


def test_sum_overflow_is_no_non_finite_entry():
    # the finite check sums first; an overflowing sum must neither warn (an
    # error under pytest's filterwarnings) nor reject
    for big in (np.full((4, 4), 1e308), np.full((4, 4), 1e308 - 1e308j)):
        big = _freeze(big)
        assert checked_array(big, 2, "big", dtype=big.dtype) is big
        bad = big.copy()
        bad[-1, -1] = np.nan
        with pytest.raises(ValidationError, match="^bad contains non-finite entries$"):
            checked_array(bad, 2, "bad", dtype=big.dtype)


def test_finite_check_makes_no_array_of_the_input_size():
    arr = _freeze(np.ones((512, 512), dtype=complex))
    tracemalloc.start()
    try:
        assert checked_array(arr, 2, "arr") is arr
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < arr.size // 16, peak  # an elementwise bool mask takes arr.size bytes


@pytest.mark.parametrize("bad", [
    pytest.param([[1.0, np.nan]], id="nan"),
    pytest.param([[np.inf, 1.0]], id="inf"),
    pytest.param([[1.0, -np.inf]], id="-inf"),
    pytest.param(np.ones((4, 2, 1)), id="3-D"),
    pytest.param(np.ones((0, 2)), id="empty-dim"),
    pytest.param([["a", "b"]], id="non-numeric"),
])
def test_atomic_kernel_checks_its_transfer_grid(bad):
    with pytest.raises(ValidationError, match=r"^transfer\b"):
        H.atomic_kernel(bad, H.GaussianPrototype())


@pytest.mark.parametrize("shape,error,message", [
    ((4, 2, 2), ValidationError, "atomic kernel must be 4-D"),
    ((4, 2, 2, 3), DimensionMismatchError, "must mirror the TF lattice"),
    ((2, 0, 0, 2), ValidationError, "atomic kernel must have all dims >= 1"),
])
def test_decompose_atomic_checks_its_kernel(shape, error, message):
    with pytest.raises(error, match=message):
        H.decompose_atomic(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decompose_atomic_rejects_non_finite_entries(bad):
    ak = np.ones((4, 2, 2, 4), dtype=complex)
    ak.flat[-1] = bad
    with pytest.raises(ValidationError, match="^atomic kernel contains non-finite entries$"):
        H.decompose_atomic(ak)


@pytest.mark.parametrize("stage", [
    lambda h: H.tf_transfer(h, 0, 0),
    lambda h: H.spreading_function(h, 0, 0),
    lambda h: H.atomic_kernel(H.tf_transfer(h, 0, 0), H.GaussianPrototype()),
    lambda h: H.cmd(h, window=2),
], ids=["tf_transfer", "spreading_function", "atomic_kernel", "cmd"])
def test_stats_stage_result_is_read_only(stage):
    result = stage(H.ImpulseResponse4D(np.ones((1, 1, 4, 2))))
    assert not result.flags.writeable
    with pytest.raises(ValueError):
        result[(0,) * result.ndim] = 7


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "writeable"])
def test_decompose_atomic_hands_on_only_a_frozen_kernel(monkeypatch, frozen):
    h = H.ImpulseResponse4D(np.ones((1, 1, 4, 2)))
    ak = H.atomic_kernel(H.tf_transfer(h, 0, 0), H.GaussianPrototype())
    if not frozen:
        ak = ak.copy()
    seen = []
    monkeypatch.setattr(H.stats, "decompose_grid_pairs", seen.append)
    H.decompose_atomic(ak)
    assert not seen[0].flags.writeable
    # a frozen kernel is handed on as it is, a writeable one as a copy
    assert (seen[0] is ak) == frozen
    assert np.shares_memory(seen[0], ak) == frozen


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_dropped_energy_must_be_finite_and_nonnegative(bad):
    kw = valid_kwargs(H.CoefficientSet)
    with pytest.raises(ValidationError, match="dropped_energy"):
        H.CoefficientSet(**{**kw, "dropped_energy": bad})


def test_nan_distances_never_reach_the_interval():
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = np.nan
    with pytest.raises(ValidationError, match="distances"):
        H.stationarity_interval(d, 0.2)


@pytest.mark.parametrize("bad", [
    pytest.param([[0.0, np.nan], [0.0, 0.0]], id="nan"),
    pytest.param([[0.0, 0.0], [np.inf, 0.0]], id="inf"),
    pytest.param([[-np.inf, 0.0], [0.0, 0.0]], id="-inf"),
    pytest.param(np.zeros(3), id="1-D"),
    pytest.param(np.zeros((3, 3, 1)), id="3-D"),
    pytest.param([[0.0, 0.5j], [0.5, 0.0]], id="complex"),
    pytest.param(np.zeros((3, 2)), id="non-square"),
])
def test_stationarity_interval_checks_its_distances(bad):
    with pytest.raises(ValidationError, match=r"^distances\b"):
        H.stationarity_interval(bad, 0.2)


@pytest.mark.parametrize("field", ["spread_t", "spread_f"])
@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
def test_gaussian_prototype_spreads_finite_and_positive(field, bad):
    with pytest.raises(ValidationError, match=field):
        H.GaussianPrototype(**{field: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_demodulate_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="received values"):
        H.demodulate(np.array([1 + 1j, complex(bad, 0.0), -1j]), "qpsk")


def test_conversion_failure_names_the_field():
    with pytest.raises(ValidationError, match="Kernel4D.values"):
        H.Kernel4D(values=[["a"]])


def _mismatch_calls():
    h = H.generate_channel(
        H.ScenarioConfig(users=2, tx_antennas=2, time_symbols=4, max_delay_taps=2), 5
    )
    kernel = H.to_kernel(h)
    wrong = np.ones((2, 5), dtype=complex)
    return {
        "apply_kernel": lambda: H.apply_kernel(kernel, wrong),
        "hogmt_precode": lambda: H.hogmt_precode(H.hogmt_decompose(kernel), wrong),
        "zf_precode_instant": lambda: H.zf_precode_instant(h, wrong),
    }


@pytest.mark.parametrize("name", ["apply_kernel", "hogmt_precode", "zf_precode_instant"])
def test_signal_shape_mismatch_rejected(name):
    with pytest.raises(DimensionMismatchError, match=r"\(2, 5\) does not match \(2, 4\)"):
        _mismatch_calls()[name]()


@pytest.fixture(scope="module")
def ctx():
    """A 2x2x4 channel and what the scalar arguments below are passed with."""
    cfg = H.ScenarioConfig(users=2, tx_antennas=2, time_symbols=4, max_delay_taps=2)
    h = H.generate_channel(cfg, 5)
    kernel = H.to_kernel(h)
    return SimpleNamespace(
        cfg=cfg, h=h, kernel=kernel, decomp=H.hogmt_decompose(kernel),
        x=H.SpaceTimeSignal(np.ones((2, 4), dtype=complex)),
        distances=np.zeros((3, 3)),
    )


def _scenario(field):
    return lambda c, v: H.ScenarioConfig(**{field: v})


# (id, name the error must carry, kind, one out-of-range value or None, call).
# kind "int" or "real"; "real+inf" admits +inf, the noiseless SNR; "shape" is a
# whole shape argument, a sequence of ints, and the value is one of a wrong length.
SCALARS = [
    *[
        (f"ScenarioConfig.{f}", f, "int", 0, _scenario(f))
        for f in (
            "users", "tx_antennas", "time_symbols", "min_delay_taps", "max_delay_taps",
            "block_len",
        )
    ],
    ("ScenarioConfig.doppler_max", "doppler_max", "real", 0.5, _scenario("doppler_max")),
    ("ScenarioConfig.doppler_drift", "doppler_drift", "real", -0.1,
     _scenario("doppler_drift")),
    ("ScenarioConfig.spatial_corr", "spatial_corr", "real", 1.0, _scenario("spatial_corr")),
    ("ScenarioConfig.delay_decay", "delay_decay", "real", -0.1, _scenario("delay_decay")),
    ("EigenDecomposition.source_dims", "source_dims", "int", 0,
     lambda c, v: H.EigenDecomposition(
         sigmas=[2.0, 1.0], psis=np.ones((2, 1, 2)), phis=np.ones((2, 1, 2)),
         source_dims=(1, v, 1, 2),
     )),
    ("generate_channel.seed", "seed", "int", -1, lambda c, v: H.generate_channel(c.cfg, v)),
    ("modulate.dims", "dims", "int", 0,
     lambda c, v: H.modulate(np.zeros(4), "bpsk", (v, 2))),
    ("modulate.dims.shape", "dims", "shape", (4,),
     lambda c, v: H.modulate(np.zeros(8), "qpsk", v)),
    ("EigenDecomposition.source_dims.shape", "source_dims", "shape", (1, 2, 1),
     lambda c, v: H.EigenDecomposition(
         sigmas=[2.0, 1.0], psis=np.ones((2, 1, 2)), phis=np.ones((2, 1, 2)),
         source_dims=v,
     )),
    ("ModulationScheme.axis_bits", "axis_bits", "int", 0,
     lambda c, v: H.ModulationScheme("x", v, 1)),
    # past 8 bits an axis the derived point table would outgrow 2**16 symbols
    ("ModulationScheme.axis_bits.max", "axis_bits", "int", 9,
     lambda c, v: H.ModulationScheme("x", v, 2)),
    ("ModulationScheme.axes", "axes", "int", 3,
     lambda c, v: H.ModulationScheme("x", 1, v)),
    ("theoretical_awgn_ber.snr_per_bit_db", "snr_per_bit_db", "real+inf", None,
     lambda c, v: H.theoretical_awgn_ber("qpsk", v)),
    ("PrecoderSpec.fraction", "fraction", "real", 1.5, lambda c, v: H.PrecoderSpec("hogmt", v)),
    ("retained_count.fraction", "fraction", "real", 0.0,
     lambda c, v: retained_count(c.decomp.sigmas, v)),
    ("hogmt_map.fraction", "fraction", "real", 1.5, lambda c, v: hogmt_map(c.decomp, v)),
    ("hogmt_precode.fraction", "fraction", "real", -0.5,
     lambda c, v: H.hogmt_precode(c.decomp, c.x, v)),
    ("run_ber.snr_db", "snr_db", "real+inf", -4000.0,
     lambda c, v: H.run_ber(c.cfg, "ideal", [0.0, v], 10_000, seed=1)),
    ("run_ber.min_bits", "min_bits", "real", 9_999,
     lambda c, v: H.run_ber(c.cfg, "ideal", [0.0], v, seed=1)),
    ("run_ber.seed", "seed", "int", -1,
     lambda c, v: H.run_ber(c.cfg, "ideal", [0.0], 10_000, seed=v)),
    ("CoefficientSet.dropped_energy", "dropped_energy", "real", -1.0,
     lambda c, v: H.CoefficientSet(x_coeffs=[1j], s_coeffs=[1j], dropped_energy=v)),
    ("tf_transfer.u", "u", "int", 2, lambda c, v: H.tf_transfer(c.h, v, 0)),
    ("tf_transfer.up", "up", "int", -1, lambda c, v: H.tf_transfer(c.h, 0, v)),
    ("spreading_function.u", "u", "int", -1, lambda c, v: H.spreading_function(c.h, v, 0)),
    ("spreading_function.up", "up", "int", 2, lambda c, v: H.spreading_function(c.h, 0, v)),
    ("GaussianPrototype.spread_t", "spread_t", "real", 0.0,
     lambda c, v: H.GaussianPrototype(spread_t=v)),
    ("GaussianPrototype.spread_f", "spread_f", "real", -1.0,
     lambda c, v: H.GaussianPrototype(spread_f=v)),
    ("GaussianPrototype.on_lattice.n_t", "n_t", "int", 0,
     lambda c, v: H.GaussianPrototype().on_lattice(v, 4)),
    ("GaussianPrototype.on_lattice.n_f", "n_f", "int", -1,
     lambda c, v: H.GaussianPrototype().on_lattice(4, v)),
    ("cmd.window", "window", "int", 5, lambda c, v: H.cmd(c.h, window=v)),
    ("stationarity_interval.d0", "d0", "real", 1.5,
     lambda c, v: H.stationarity_interval(c.distances, v)),
    ("SimConfig.min_bits", "min_bits", "int", H.MIN_BITS_FLOOR - 1,
     lambda c, v: SimConfig(min_bits=v)),
    ("SimConfig.seed", "seed", "int", -1, lambda c, v: SimConfig(seed=v)),
    ("StatsConfig.d0", "d0", "real", 0.0, lambda c, v: StatsConfig(d0=v)),
    ("StatsConfig.window", "window", "int", 1, lambda c, v: StatsConfig(window=v)),
    ("StatsConfig.ensemble", "ensemble", "int", 0, lambda c, v: StatsConfig(ensemble=v)),
    ("StatsConfig.proto_spread_t", "proto_spread_t", "real", 0.0,
     lambda c, v: StatsConfig(proto_spread_t=v)),
    ("StatsConfig.proto_spread_f", "proto_spread_f", "real", -1.0,
     lambda c, v: StatsConfig(proto_spread_f=v)),
    ("complexity_estimate.users", "users", "int", 0, lambda c, v: complexity_estimate(v, 1, 2)),
    ("complexity_estimate.tx_antennas", "tx_antennas", "int", 0,
     lambda c, v: complexity_estimate(2, v, 2)),
    ("complexity_estimate.time_symbols", "time_symbols", "int", 0,
     lambda c, v: complexity_estimate(2, 1, v)),
]


def _bad_values(kind, outside):
    if kind == "shape":  # a scalar, a non-number, a string, nothing, a wrong length
        return [4, np.nan, "12", None, outside]
    values = [np.nan, -np.inf, True, "1"]
    values += [np.inf] if kind != "real+inf" else []
    values += [2.5] if kind == "int" else []
    return values + ([outside] if outside is not None else [])


SCALAR_CASES = [
    pytest.param(name, call, bad, id=f"{sid}-{bad!r}")
    for sid, name, kind, outside, call in SCALARS
    for bad in _bad_values(kind, outside)
]


class TestScalarArguments:
    @pytest.mark.parametrize("name,call,bad", SCALAR_CASES)
    def test_rejected_naming_the_argument(self, ctx, name, call, bad):
        with pytest.raises(ValidationError, match=rf"\b{name}\b"):
            call(ctx, bad)

    def test_interval_is_stated(self):
        with pytest.raises(ValidationError, match=r"^d0 must be in \(0, 1\], got nan$"):
            checked_real(np.nan, "d0", gt=0, le=1)
        with pytest.raises(ValidationError, match=r"^x must be in \(-inf, inf\), got inf$"):
            checked_real(np.inf, "x")
        assert checked_real(np.inf, "snr_db", le=np.inf) == np.inf
        with pytest.raises(ValidationError, match=r"^n must be an integer, got 2\.0$"):
            checked_int(2.0, "n")

    def test_integers_are_compared_exactly(self):
        assert checked_int(2**64 - 1, "seed", ge=0, lt=2**64) == 2**64 - 1
        assert checked_int(np.uint64(2**64 - 1), "seed", ge=0, lt=2**64) == 2**64 - 1
        assert checked_int(10**400, "n", ge=1) == 10**400  # beyond the float range
        with pytest.raises(ValidationError, match="seed"):
            checked_int(2**64, "seed", ge=0, lt=2**64)

    def test_checked_numbers_are_stored_as_their_field_type(self):
        cfg = H.ScenarioConfig(users=np.int64(2), doppler_max=0, delay_decay=np.float32(1.5))
        assert type(cfg.users) is int and cfg.users == 2
        assert type(cfg.doppler_max) is float and type(cfg.delay_decay) is float
        assert type(H.PrecoderSpec("hogmt", 1).fraction) is float
        assert type(H.GaussianPrototype(spread_t=2).spread_t) is float


def test_ctf_dimension_must_fit_the_u32_header(tmp_path):
    # only the header dims are read before the check, so nothing is allocated
    too_big = SimpleNamespace(dims=(2**32, 1, 1, 1))
    with pytest.raises(ValidationError, match=r"CTF header dimension must be in \[0, 4294967296\)"):
        H.save_ctf(too_big, tmp_path / "x.ctf")
    assert not (tmp_path / "x.ctf").exists()
