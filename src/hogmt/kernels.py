"""4-D channel kernels and their dual-eigenfunction decomposition.

A kernel K[u, t, u', t'] maps a transmitted space-time grid x[u', t'] to a
received grid r[u, t].  Flattening both index pairs row-major (time fastest)
turns the kernel into an ordinary matrix; its complex SVD yields singular
values sigma_n together with a receive-side eigenfunction grid psi_n(u, t)
and a transmit-side grid phi_n(u', t') per mode.  The stored phi_n holds the
conjugated right singular vectors, so that sending conj(phi_n) through the
kernel returns sigma_n * psi_n (the flat-fading subchannel property used by
the precoder).
"""

from __future__ import annotations

import functools
import numbers
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DimensionMismatchError,
    NumericalError,
    ValidationError,
)

__all__ = [
    "Kernel4D",
    "EigenDecomposition",
    "flatten_kernel",
    "decompose_grid_pairs",
    "hogmt_decompose",
    "reconstruct",
    "apply_kernel",
    "duality_residual",
]

# Decompositions keep the modes with sigma_n >= this fraction of sigma_1.
DECOMPOSITION_FLOOR_REL = 1e-12


def _freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only down its ``.base`` chain; for fresh results only.

    A producer hands its new array to a dataclass through this, so that
    :func:`checked_array` keeps it instead of copying it.
    """
    link = arr
    while isinstance(link, np.ndarray):
        link.flags.writeable = False
        link = link.base
    return arr


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS bundled with NumPy, or None."""
    import ctypes  # here, so that importing hogmt skips the lookup
    import glob
    for so in glob.glob(f"{os.path.dirname(np.__file__)}/../numpy.libs/*openblas*"):
        lib = ctypes.CDLL(so)
        fns = [getattr(lib, f"scipy_openblas_{op}_num_threads64_", None) for op in ("get", "set")]
        if all(fns):
            fns[0].restype, fns[0].argtypes = ctypes.c_int, []
            fns[1].restype, fns[1].argtypes = None, [ctypes.c_int]
            return fns


@contextmanager
def _blas_threads(n: int):
    """Run a block (or, as a decorator, a function) with OpenBLAS at ``n`` threads and
    restore the count after it, also on an exception; a no-op without that library."""
    get, put = _openblas_threads() or (lambda: None, lambda n: None)
    before = get()
    put(n)
    try:
        yield
    finally:
        put(before)


def _is_frozen(arr: np.ndarray) -> bool:
    """True when ``arr`` is read-only down its ``.base`` chain and that chain
    ends in no base or in an immutable ``bytes`` object."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None or isinstance(arr, bytes)


def checked_array(data, ndim: int, name: str, dtype=np.complex128, nonempty=False) -> np.ndarray:
    """Read-only C-contiguous ``data`` as ``dtype``, ``ndim``-D and finite.

    The single boundary every public array of the package passes: errors
    raise ValidationError naming ``name``.  ``nonempty`` requires every dim
    to be >= 1.  An array that already has ``dtype``, is C-contiguous and is
    frozen (see :func:`_is_frozen`) is kept as it is; anything else is
    copied and the copy frozen, so later changes to the caller's array do
    not reach it.
    """
    try:
        with np.errstate(invalid="raise"):  # NaN or inf cast to an integer dtype
            raw = np.asarray(data)
            if raw.dtype.kind == "c" and np.dtype(dtype).kind != "c":
                raise TypeError("complex entries would lose their imaginary part")
            if raw.dtype == dtype and raw.flags.c_contiguous and _is_frozen(raw):
                arr = raw
            else:
                arr = np.array(raw, dtype=dtype, order="C")
                if arr.dtype.kind in "iu" and raw.dtype.kind == "f" and (arr != raw).any():
                    raise TypeError("fractional entries would be truncated")
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"{name} is not a {np.dtype(dtype)} array: {exc}") from exc
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if nonempty and min(arr.shape) < 1:
        raise ValidationError(f"{name} must have all dims >= 1, got {arr.shape}")
    # any NaN or inf makes the sum non-finite, so only a sum that overflowed
    # or met a non-finite entry needs the elementwise check and its bool array
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(arr.sum()) or np.isfinite(arr).all()
    if not finite:
        raise ValidationError(f"{name} contains non-finite entries")
    arr.flags.writeable = False
    return arr


def checked_real(value, name: str, *, ge=None, gt=-np.inf, le=None, lt=np.inf) -> float:
    """``value`` as a float in the interval from ``[ge`` or ``(gt`` to ``le]`` or ``lt)``.

    The scalar counterpart of :func:`checked_array`: a bool, a non-number, NaN,
    or a value outside the interval (+-inf too, unless a closed bound admits
    it) raises ValidationError naming ``name`` and stating the interval.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    # compared as given, so a large int is not rounded first; NaN fails both
    lower, above = (f"[{ge}", value >= ge) if ge is not None else (f"({gt}", value > gt)
    upper, below = (f"{le}]", value <= le) if le is not None else (f"{lt})", value < lt)
    if not (above and below):
        raise ValidationError(f"{name} must be in {lower}, {upper}, got {value!r}")
    return float(value)


def checked_int(value, name: str, *, ge=None, le=None, lt=np.inf) -> int:
    """``value`` as an int in the bounds of :func:`checked_real`; no bool, no float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    with suppress(OverflowError):  # only the float conversion fails past 2**1024
        checked_real(value, name, ge=ge, le=le, lt=lt)
    return int(value)


def checked_shape(value, name: str, ndim: int) -> tuple[int, ...]:
    """``value``, a tuple, list or 1-D array of ``ndim`` ints >= 1, as a tuple."""
    arrayed = isinstance(value, np.ndarray) and value.ndim == 1
    if not (isinstance(value, (tuple, list)) or arrayed) or len(value) != ndim:
        raise ValidationError(f"{name} must be a sequence of {ndim} integers, got {value!r}")
    return tuple(checked_int(d, name, ge=1) for d in value)


_NUMBER_CHECKS = {"int": checked_int, "float": checked_real}


def checked_fields(obj) -> None:
    """Check and store every field of the frozen dataclass ``obj`` that declares a check.

    A field's metadata is its one declaration: ``choices`` lists the strings
    it may take; ``ndim`` (with ``dtype``, complex by default, and
    ``nonempty``) makes it an array passed through :func:`checked_array` as
    ``Class.field``; on a field annotated ``int`` or ``float`` it holds the
    interval as bounds of :func:`checked_real`.  Errors raise
    ValidationError naming the field.
    """
    for f in fields(obj):
        value, meta = getattr(obj, f.name), f.metadata
        # every module uses ``from __future__ import annotations``: f.type is a string
        number_check = _NUMBER_CHECKS.get(f.type)
        if "choices" in meta and not (isinstance(value, str) and value in meta["choices"]):
            raise ValidationError(f"{f.name} must be one of {meta['choices']}, got {value!r}")
        if "ndim" in meta:
            value = checked_array(value, name=f"{type(obj).__name__}.{f.name}", **meta)
        elif number_check is not None:
            value = number_check(value, f.name, **meta)
        else:
            continue
        object.__setattr__(obj, f.name, value)


def ensure_grid(data, name: str = "grid", shape=None) -> np.ndarray:
    """Checked 2-D complex grid of ``data``, or of its ``grid`` attribute.

    Both dims must be >= 1 and, when ``shape`` is given, equal to it.
    """
    arr = checked_array(getattr(data, "grid", data), 2, name, nonempty=True)
    if shape is not None and arr.shape != tuple(shape):
        raise DimensionMismatchError(
            f"{name} shape {arr.shape} does not match {tuple(shape)}"
        )
    return arr


@dataclass(frozen=True)
class Kernel4D:
    """Discrete 4-D channel kernel with entries indexed (u, t, u', t').

    Dims: L_u receive users, L_t output time symbols, L_u' transmit antennas,
    L_t' input time symbols with L_t' == L_t (block-wise operation over a
    common time horizon).
    """

    values: np.ndarray = field(metadata={"ndim": 4, "nonempty": True})

    def __post_init__(self):
        checked_fields(self)
        l_t, l_tp = self.values.shape[1::2]
        if l_t != l_tp:
            raise ValidationError(
                f"kernel input/output time lengths must match, got L_t={l_t} and L_t'={l_tp}"
            )

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(L_u, L_t, L_u', L_t')."""
        return self.values.shape

    @property
    def frob_norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class EigenDecomposition:
    """Ordered singular values with dual eigenfunction grids.

    sigmas[n] are descending and nonnegative; psis[n] is the receive-side
    grid over the first index pair, phis[n] the transmit-side grid over the
    second pair (conjugated right singular vectors).  lambdas = sigmas**2 is
    the per-mode transmission gain of a single kernel realization.
    """

    sigmas: np.ndarray = field(metadata={"ndim": 1, "dtype": float})
    psis: np.ndarray = field(metadata={"ndim": 3})  # (n_modes, rows, cols) of the first pair
    phis: np.ndarray = field(metadata={"ndim": 3})  # (n_modes, rows', cols') of the second
    source_dims: tuple[int, int, int, int]

    def __post_init__(self):
        checked_fields(self)
        sig, psis, phis = self.sigmas, self.psis, self.phis
        n = sig.size
        if psis.shape[0] != n or phis.shape[0] != n:
            raise DimensionMismatchError(
                f"mode counts disagree: {n} sigmas, {psis.shape[0]} psis, "
                f"{phis.shape[0]} phis"
            )
        d = checked_shape(self.source_dims, "EigenDecomposition.source_dims", 4)
        if psis.shape[1:] != d[:2] or phis.shape[1:] != d[2:]:
            raise DimensionMismatchError(
                f"eigenfunction grids {psis.shape[1:]}/{phis.shape[1:]} do not "
                f"match source dims {d}"
            )
        if np.any(sig < 0):
            raise ValidationError("sigmas must be nonnegative")
        if n > 1 and np.any(np.diff(sig) > 0):
            raise ValidationError("sigmas must be sorted descending")
        object.__setattr__(self, "source_dims", d)

    @property
    def n_modes(self) -> int:
        return self.sigmas.size

    @property
    def lambdas(self) -> np.ndarray:
        """Per-mode transmission gains sigma_n**2."""
        return self.sigmas**2


def _floor_count(sigmas: np.ndarray, floor_rel: float) -> int:
    """Count of descending sigmas >= floor_rel * sigma_1; 0 when sigma_1 is 0."""
    if sigmas.size == 0 or sigmas[0] <= 0.0:
        return 0
    return int(np.count_nonzero(sigmas >= floor_rel * sigmas[0]))


def _banded(blocks: np.ndarray) -> np.ndarray:
    """Banded 4-D values (rows, L_t, cols, L_t): the one layout of a kernel.

    Block [tau, t] of ``blocks`` (L_tau, L_t, rows, cols) maps input time
    t - tau to output time t; every other entry is zero.
    """
    l_tau, l_t, rows, cols = blocks.shape
    out = np.zeros((rows, l_t, cols, l_t), dtype=np.complex128)
    for tau in range(l_tau):
        ts = np.arange(tau, l_t)
        # advanced indexing puts the paired time axes first
        out[:, ts, :, ts - tau] = blocks[tau, ts]
    return _freeze(out)


def flatten_kernel(kernel: Kernel4D) -> np.ndarray:
    """Matrix view of the kernel: rows (u, t) flattened, cols (u', t')."""
    l_u, l_t, l_up, l_tp = kernel.dims
    return kernel.values.reshape(l_u * l_t, l_up * l_tp)


def decompose_grid_pairs(values: np.ndarray) -> EigenDecomposition:
    """SVD of a 4-D operator: the one entry for channel and atomic kernels.

    The first index pair of ``values`` gives the matrix rows, the second the
    columns; flattening C-contiguous input is a view.  Modes below
    DECOMPOSITION_FLOOR_REL * sigma_1 are dropped; a zero operator has none.
    """
    arr = checked_array(values, 4, "operator", nonempty=True)
    row_shape, col_shape = arr.shape[:2], arr.shape[2:]
    mat = arr.reshape(row_shape[0] * row_shape[1], col_shape[0] * col_shape[1])
    try:
        u_mat, sig, vh_mat = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed to converge on a {mat.shape} matrix: {exc}"
        ) from exc

    keep = _floor_count(sig, DECOMPOSITION_FLOOR_REL)
    u_mat = u_mat[:, :keep]
    sig = sig[:keep]
    vh_mat = vh_mat[:keep, :]

    # Phase convention: rotate each (u_n, v_n) pair so that the
    # largest-magnitude entry of the receive-side vector is real positive.
    # Singular vectors have unit norm, so every peak is nonzero.
    peaks = u_mat[np.argmax(np.abs(u_mat), axis=0), np.arange(keep)]
    rot = np.conj(peaks) / np.abs(peaks)
    u_mat *= rot
    # keeping u_n v_n^H invariant requires the conjugate rotation on the
    # stored conj(v_n) row
    vh_mat *= np.conj(rot)[:, np.newaxis]

    psis = np.ascontiguousarray(u_mat.T).reshape(keep, *row_shape)
    phis = vh_mat.reshape(keep, *col_shape)
    return EigenDecomposition(
        sigmas=_freeze(sig), psis=_freeze(psis), phis=_freeze(phis), source_dims=arr.shape
    )


def hogmt_decompose(kernel: Kernel4D) -> EigenDecomposition:
    """Decompose a 4-D kernel into dual 2-D eigenfunction pairs.

    Returns descending sigma_n with grids psi_n(u, t) and phi_n(u', t') such
    that K = sum_n sigma_n * psi_n (x) phi_n and sending conj(phi_n) through
    the kernel yields sigma_n * psi_n.
    """
    return decompose_grid_pairs(kernel.values)


def reconstruct(decomp: EigenDecomposition) -> Kernel4D:
    """Rebuild the kernel sum_n sigma_n * psi_n (x) phi_n."""
    d = decomp.source_dims
    if d[1] != d[3]:
        raise DimensionMismatchError(
            "reconstruction to a channel kernel requires matching time "
            f"lengths, got source dims {d}"
        )
    vals = np.einsum(
        "n,nut,nvs->utvs", decomp.sigmas, decomp.psis, decomp.phis, optimize=True
    )
    return Kernel4D(vals)


def apply_kernel(kernel: Kernel4D, x):
    """Noise-free channel output r[u, t] = sum_{u', t'} K[u,t,u',t'] x[u',t'].

    ``x`` may be a plain 2-D grid or any object carrying one in a ``grid``
    attribute (a space-time signal); the result mirrors the input kind.
    """
    l_u, l_t, l_up, l_tp = kernel.dims
    grid = ensure_grid(x, "kernel input signal", (l_up, l_tp))
    flat = flatten_kernel(kernel) @ grid.reshape(-1)
    out = flat.reshape(l_u, l_t)
    if hasattr(x, "grid"):
        return type(x)(grid=out)
    return out


def duality_residual(kernel: Kernel4D, decomp: EigenDecomposition) -> float:
    """Worst-case relative error of the subchannel duality.

    For every mode, sending conj(phi_n) through the kernel should return
    sigma_n * psi_n; the result is max_n of the Frobenius error normalized by
    max(sigma_1, machine epsilon).
    """
    if decomp.n_modes == 0:
        raise ValidationError("duality residual of an empty decomposition")
    l_u, l_t, l_up, l_tp = kernel.dims
    if decomp.source_dims != (l_u, l_t, l_up, l_tp):
        raise DimensionMismatchError(
            f"decomposition dims {decomp.source_dims} do not match kernel "
            f"dims {kernel.dims}"
        )
    mat = flatten_kernel(kernel)
    # columns: conj(phi_n) flattened; kernel applied to all modes at once
    sent = np.conj(decomp.phis.reshape(decomp.n_modes, -1)).T
    got = mat @ sent
    want = decomp.psis.reshape(decomp.n_modes, -1).T * decomp.sigmas[np.newaxis, :]
    errs = np.linalg.norm(got - want, axis=0)
    scale = max(float(decomp.sigmas[0]), float(np.finfo(float).eps))
    return float(errs.max() / scale)
