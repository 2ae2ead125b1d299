"""The array boundary: every public array field is checked, copied and frozen."""

import numpy as np
import pytest

import hogmt as H
from hogmt.errors import DimensionMismatchError, ValidationError


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
        H.TFTransfer: lambda: dict(values=c(4, 2)),
        H.SpreadingFunction: lambda: dict(values=c(2, 4)),
        H.AtomicKernel: lambda: dict(
            values=c(4, 2, 2, 4), prototype=np.full((4, 2), 8**-0.5, dtype=complex)
        ),
        H.CoefficientSet: lambda: dict(
            x_coeffs=c(2), s_coeffs=c(2), retained=2, dropped_energy=0.5
        ),
        H.CmdSeries: lambda: dict(distances=rng.uniform(0, 1, (3, 3)), window=2, side="tx"),
        H.StationarityReport: lambda: dict(
            intervals=np.array([1.0, 2.0, 3.0]), threshold=0.2, window=2, side="tx"
        ),
    }[cls]()


FIELDS = [
    (H.Kernel4D, "values"),
    (H.ImpulseResponse4D, "values"),
    (H.SpaceTimeSignal, "grid"),
    (H.EigenDecomposition, "sigmas"),
    (H.EigenDecomposition, "psis"),
    (H.EigenDecomposition, "phis"),
    (H.TFTransfer, "values"),
    (H.SpreadingFunction, "values"),
    (H.AtomicKernel, "values"),
    (H.AtomicKernel, "prototype"),
    (H.CoefficientSet, "x_coeffs"),
    (H.CoefficientSet, "s_coeffs"),
    (H.CmdSeries, "distances"),
    (H.StationarityReport, "intervals"),
]
FIELD_IDS = [f"{cls.__name__}.{field}" for cls, field in FIELDS]


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


@pytest.mark.parametrize("cls", [H.TFTransfer, H.SpreadingFunction, H.SpaceTimeSignal])
def test_empty_grid_rejected(cls):
    field = "grid" if cls is H.SpaceTimeSignal else "values"
    with pytest.raises(ValidationError, match="dims >= 1"):
        cls(**{field: np.zeros((0, 4), dtype=complex)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_dropped_energy_must_be_finite_and_nonnegative(bad):
    kw = valid_kwargs(H.CoefficientSet)
    with pytest.raises(ValidationError, match="dropped_energy"):
        H.CoefficientSet(**{**kw, "dropped_energy": bad})


def test_nan_distances_never_reach_the_interval():
    d = np.zeros((3, 3))
    d[0, 1] = d[1, 0] = np.nan
    with pytest.raises(ValidationError, match="distances"):
        H.stationarity_interval(H.CmdSeries(distances=d, window=2, side="tx"), 0.2)


@pytest.mark.parametrize("field", ["spread_t", "spread_f"])
@pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
def test_gaussian_prototype_spreads_finite_and_positive(field, bad):
    with pytest.raises(ValidationError, match=field):
        H.GaussianPrototype(**{field: bad})


def test_atomic_kernel_prototype_grid_checked_like_the_field():
    h = H.generate_channel(
        H.ScenarioConfig(users=1, tx_antennas=1, time_symbols=4, max_delay_taps=2), 3
    )
    transfer = H.tf_transfer(h, 0, 0)
    proto = np.full((4, 2), 8**-0.5, dtype=complex)
    assert H.atomic_kernel(transfer, proto).prototype.flags.writeable is False
    for bad in (2 * proto, np.full((4, 2), np.nan)):
        with pytest.raises(ValidationError, match="prototype"):
            H.atomic_kernel(transfer, bad)
    with pytest.raises(DimensionMismatchError, match="prototype"):
        H.atomic_kernel(transfer, np.full((2, 4), 8**-0.5))


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
        "interference_split": lambda: H.interference_split(h, H.SpaceTimeSignal(wrong)),
    }


@pytest.mark.parametrize(
    "name", ["apply_kernel", "hogmt_precode", "zf_precode_instant", "interference_split"]
)
def test_signal_shape_mismatch_rejected(name):
    with pytest.raises(DimensionMismatchError, match=r"\(2, 5\) does not match \(2, 4\)"):
        _mismatch_calls()[name]()
