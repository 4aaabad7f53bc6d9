"""GEMM entry points with oneMKL-style compute-mode dispatch.

The public surface mirrors the BLAS level-3 family the paper exercises
(``sgemm``/``dgemm``/``cgemm``/``zgemm`` plus a dtype-generic
:func:`gemm`) with NumPy-friendly conventions: ``C = alpha * op(A) @
op(B) + beta * C``.

Mode semantics (matching oneMKL):

* ``FLOAT_TO_*`` modes affect only *single-precision* routines
  (``sgemm``/``cgemm``); double-precision calls always run standard,
  exactly as in MKL (which is why the paper's QXMD FP64 phase is
  untouched by the environment variable).
* ``OZAKI_INT8`` is likewise single-only: scaled INT8 slice products
  with exact integer accumulation, summed in FP64 and rounded once to
  FP32.
* ``EMULATED_FP64`` applies at *either* width: FP64 operands split
  into three FP32 terms (exact), FP32 operands into one, with all
  pair products accumulated at FP64.
* ``COMPLEX_3M`` affects complex routines at either precision.
* Everything else runs standard FP32/FP64 ``np.matmul``.

Every call may be timed by the attached device model (see
:func:`use_device`) and logged through :mod:`repro.blas.verbose`.
"""

from __future__ import annotations

import contextlib
import time
from typing import ContextManager, Iterator, Optional, Union

import numpy as np

from repro import context as _context
from repro.blas import backend as _backend
from repro.blas.complex3m import gemm_3m_planned, gemm_4m_split_planned
from repro.blas.modes import ComputeMode, _resolve
from repro.blas.plan import OrientedOperand, PreparedOperand, operand_handle
from repro.blas.rounding import round_to_precision
from repro.blas.verbose import VerboseRecord, _emit, _log_for
from repro.blas.workspace import split_gemm_fused
from repro.telemetry.provenance import register_call_site, site_scope
from repro.telemetry.registry import active as _telemetry_active
from repro.types import Precision

__all__ = [
    "gemm",
    "sgemm",
    "dgemm",
    "cgemm",
    "zgemm",
    "use_device",
    "current_device",
    "call_site",
    "check_finite",
    "finite_checks_enabled",
    "finite_checks",
]

_TRANS_VALUES = ("N", "T", "C")


# ----------------------------------------------------------------------
# Device-model and call-site hooks.
# ----------------------------------------------------------------------


def use_device(device) -> ContextManager[None]:
    """Attach a :class:`repro.gpu.executor.Device` for the scope.

    While active, every GEMM asks the device to predict its execution
    time on the modelled hardware and records a kernel event on the
    device's timeline.  ``device=None`` silences modelling.
    """
    return _context.scoped(device=device)


def current_device():
    """The device attached by the innermost :func:`use_device`, if any."""
    return _context.current().device


def call_site(name: str) -> ContextManager[None]:
    """Label GEMMs issued in this scope with an application site name.

    DCMESH uses this to tag calls as ``nlp_prop`` / ``calc_energy`` /
    ``remap_occ`` so the harness can group per-function timings the
    way the paper's MKL_VERBOSE analysis does.
    """
    return _context.scoped(site=name)


# ----------------------------------------------------------------------
# Opt-in input validation.
#
# The historical per-call ``np.isfinite(A).all()`` scans are an
# O(m*k + k*n) full-matrix read on every GEMM — measurable on the LFD
# hot path, where the big operands are scanned three times per QD step.
# They are now a process-wide toggle: off by default (the simulation
# hot loop), switched on by the test suite's conftest.
# ----------------------------------------------------------------------

_check_finite_enabled = False


def check_finite(enabled: bool) -> None:
    """Enable/disable the non-finite input scans on every GEMM call."""
    global _check_finite_enabled
    _check_finite_enabled = bool(enabled)


def finite_checks_enabled() -> bool:
    """Whether GEMM entry points scan their inputs for Inf/NaN."""
    return _check_finite_enabled


@contextlib.contextmanager
def finite_checks(enabled: bool) -> Iterator[None]:
    """Scoped :func:`check_finite` toggle."""
    global _check_finite_enabled
    prev = _check_finite_enabled
    _check_finite_enabled = bool(enabled)
    try:
        yield
    finally:
        _check_finite_enabled = prev


def _assert_finite(routine: str, a, b, a_plan=None, b_plan=None) -> None:
    a_ok = a_plan.is_finite() if a_plan is not None else bool(np.isfinite(a).all())
    b_ok = b_plan.is_finite() if b_plan is not None else bool(np.isfinite(b).all())
    if not (a_ok and b_ok):
        raise FloatingPointError(f"{routine} received non-finite input")


# ----------------------------------------------------------------------
# Helpers.
# ----------------------------------------------------------------------


def _routine_name(dtype: np.dtype) -> str:
    return {
        np.dtype(np.float32): "sgemm",
        np.dtype(np.float64): "dgemm",
        np.dtype(np.complex64): "cgemm",
        np.dtype(np.complex128): "zgemm",
    }[dtype]


def _working_dtype(a: np.ndarray, b: np.ndarray) -> np.dtype:
    dt = np.result_type(a.dtype, b.dtype)
    if dt.kind == "c":
        return np.dtype(np.complex128) if dt.itemsize > 8 else np.dtype(np.complex64)
    if dt.kind == "f":
        return np.dtype(np.float64) if dt.itemsize > 4 else np.dtype(np.float32)
    # Integer/bool inputs promote to FP64, like calling dgemm.
    return np.dtype(np.float64)


def _call_mode(explicit, ctx) -> ComputeMode:
    """Mode of one GEMM issued in ``ctx``: explicit > site policy >
    ambient (context / global / environment).

    Site policies are the per-call mixing the paper's env-var method
    cannot express (Section IV-D).
    """
    if explicit is None and ctx.policy is not None:
        site_mode = ctx.policy.mode_for(ctx.site)
        if site_mode is not None:
            return site_mode
    return _resolve(explicit, ctx.mode)


def _compute(
    a_h: OrientedOperand,
    b_h: OrientedOperand,
    mode: ComputeMode,
    dtype: np.dtype,
    be,
) -> np.ndarray:
    """Run ``op(A) @ op(B)`` under ``mode`` over operand handles.

    The handles serve every derived operand form (contiguous casts,
    real/imag parts, split-term stacks) from their plans, so a
    prepared/cached operand contributes no per-call conversion work.
    ``be`` is the :class:`~repro.blas.backend.ArrayBackend` executing
    the level-3 products; the entry points take it from their one
    execution-context read and pass it down.
    """
    is_complex = dtype.kind == "c"
    is_single = dtype in (np.dtype(np.float32), np.dtype(np.complex64))

    if mode.is_low_precision and is_single:
        if is_complex:
            # MKL composes FLOAT_TO_* with the standard 4M complex
            # decomposition: each real component GEMM is split.
            return gemm_4m_split_planned(
                a_h, b_h, mode.component_precision, mode.n_terms, backend=be
            )
        # Real single precision: inputs are rounded/split directly.
        return split_gemm_fused(
            a_h, b_h, mode.component_precision, mode.n_terms, backend=be
        )

    if mode.uses_int8 and is_single:
        # Ozaki scheme: scaled INT8 slices, exact integer accumulation,
        # FP32 rescale-and-sum.  Single-precision only, like FLOAT_TO_*;
        # composes with 4M for complex via the same fused engine
        # (Precision.INT8 is the split-family marker).
        if is_complex:
            return gemm_4m_split_planned(
                a_h, b_h, Precision.INT8, mode.n_terms, backend=be
            )
        return split_gemm_fused(a_h, b_h, Precision.INT8, mode.n_terms, backend=be)

    if mode.uses_fp64_emulation:
        # Emulated FP64: FP32-term splitting with FP64 (compensated)
        # accumulation.  Applies at either storage width — three terms
        # reconstruct an FP64 operand exactly; single-precision inputs
        # need one term and gain FP64 accumulation over STANDARD.
        n_terms = 3 if not is_single else 1
        if is_complex:
            return gemm_4m_split_planned(
                a_h, b_h, Precision.FP64, n_terms, backend=be
            )
        return split_gemm_fused(a_h, b_h, Precision.FP64, n_terms, backend=be)

    if mode.uses_3m and is_complex:
        return gemm_3m_planned(a_h, b_h, backend=be)

    # STANDARD, or a mode that does not apply to this routine
    # (FLOAT_TO_* on dgemm/zgemm, COMPLEX_3M on real routines).
    out = be.to_numpy(
        be.matmul(a_h.contiguous_native(be), b_h.contiguous_native(be))
    )
    return out.astype(dtype, copy=False)


# ----------------------------------------------------------------------
# Public entry points.
# ----------------------------------------------------------------------


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    alpha: Union[float, complex] = 1.0,
    beta: Union[float, complex] = 0.0,
    c: Optional[np.ndarray] = None,
    trans_a: str = "N",
    trans_b: str = "N",
    mode: Union[str, ComputeMode, None] = None,
) -> np.ndarray:
    """General matrix multiply: ``alpha * op(A) @ op(B) + beta * C``.

    Parameters
    ----------
    a, b:
        2-D arrays.  The effective routine (``sgemm``/``dgemm``/
        ``cgemm``/``zgemm``) is chosen from the promoted dtype.
    alpha, beta, c:
        Standard BLAS scaling; ``c`` is required when ``beta != 0``
        and is *not* modified in place (a new array is returned).
    trans_a, trans_b:
        ``'N'`` (as-is), ``'T'`` (transpose) or ``'C'`` (conjugate
        transpose).
    mode:
        Per-call compute-mode override; defaults to the ambient mode
        (context manager, :func:`set_compute_mode`, or the
        ``MKL_BLAS_COMPUTE_MODE`` environment variable).

    Returns
    -------
    numpy.ndarray
        The ``m x n`` result in the promoted storage dtype.
    """
    return _dispatch("gemm", a, b, alpha, trans_a, trans_b, mode, beta, c)


def _dispatch(function, a, b, alpha, trans_a, trans_b, mode, beta=0.0, c=None):
    """The body of :func:`gemm` (2-D operands) and
    :func:`repro.blas.batch.gemm_batch` (3-D stacks, ``function ==
    "gemm_batch"``): one execution-context read, one mode resolution,
    one device booking and one MKL_VERBOSE record per call."""
    batched = function == "gemm_batch"
    ndim = 3 if batched else 2
    a_plan = a if isinstance(a, PreparedOperand) else None
    b_plan = b if isinstance(b, PreparedOperand) else None
    a_arr = a_plan.array if a_plan is not None else np.asarray(a)
    b_arr = b_plan.array if b_plan is not None else np.asarray(b)
    if a_arr.ndim != ndim or b_arr.ndim != ndim:
        raise ValueError(
            f"{function} requires {ndim}-D operands, "
            f"got {a_arr.ndim}-D and {b_arr.ndim}-D"
        )
    if batched and a_arr.shape[0] != b_arr.shape[0]:
        raise ValueError(
            f"batch dimensions differ: {a_arr.shape[0]} vs {b_arr.shape[0]}"
        )
    if trans_a not in _TRANS_VALUES or trans_b not in _TRANS_VALUES:
        raise ValueError(
            f"trans flags must be in {_TRANS_VALUES}, got {trans_a!r}, {trans_b!r}"
        )
    if finite_checks_enabled():
        _assert_finite(function, a_arr, b_arr, a_plan, b_plan)

    ctx = _context.current()
    dtype = _working_dtype(a_arr, b_arr)
    effective = _call_mode(mode, ctx)
    routine = _routine_name(dtype)

    a_h = operand_handle(a_plan if a_plan is not None else a_arr, trans_a, dtype)
    b_h = operand_handle(b_plan if b_plan is not None else b_arr, trans_b, dtype)
    a_shape, b_shape = a_h.shape, b_h.shape
    if a_shape[-1] != b_shape[-2]:
        raise ValueError(
            f"inner dimensions differ: op(A) is {a_shape}, op(B) is {b_shape}"
        )
    m, k = a_shape[-2:]
    n = b_shape[-1]
    batch = a_shape[0] if batched else 1

    # Provenance only exists while a collector is installed; the
    # disabled path stays at the single global read below.
    site_id = ""
    if _telemetry_active() is not None:
        site_id = register_call_site(
            ctx.site or "-", function, routine, m, n, k, batch
        )

    be = _backend._default if ctx.backend is None else ctx.backend
    t0 = time.perf_counter()
    if site_id:
        with site_scope(site_id):
            out = _compute(a_h, b_h, effective, dtype, be)
    else:
        out = _compute(a_h, b_h, effective, dtype, be)
    wall = time.perf_counter() - t0

    if alpha != 1.0:
        out = (alpha * out).astype(dtype, copy=False)
    if beta != 0.0:
        if c is None:
            raise ValueError("beta != 0 requires a C matrix")
        c = np.asarray(c)
        if c.shape != (m, n):
            raise ValueError(f"C has shape {c.shape}, expected {(m, n)}")
        out = (out + beta * c.astype(dtype, copy=False)).astype(dtype, copy=False)

    device = ctx.device
    model_seconds = None
    if device is not None and batched:
        model_seconds = device.record_gemm_batch(
            routine=routine, m=m, n=n, k=k, batch=batch, mode=effective, site=ctx.site
        )
    elif device is not None:
        model_seconds = device.record_gemm(
            routine=routine, m=m, n=n, k=k, mode=effective, site=ctx.site
        )
    log = _log_for(ctx)
    if log is not None or _telemetry_active() is not None:
        _emit(
            VerboseRecord(
                routine=routine,
                trans_a=trans_a,
                trans_b=trans_b,
                m=m,
                n=n,
                k=k,
                mode=effective,
                seconds=wall,
                model_seconds=model_seconds,
                site=ctx.site,
                batch=batch,
                site_id=site_id,
                backend=be.cache_key,
            ),
            log,
        )
    return out


def _typed(dtype):
    dtype = np.dtype(dtype)

    def coerce(x):
        # Prepared operands of the right dtype pass through untouched so
        # their cached derived forms stay usable.
        if isinstance(x, PreparedOperand):
            return x if x.array.dtype == dtype else np.asarray(x.array, dtype=dtype)
        return np.asarray(x, dtype=dtype)

    def wrapper(a, b, **kwargs):
        return gemm(coerce(a), coerce(b), **kwargs)

    return wrapper


# Hoisted typed wrappers: building the closure per call made every
# sgemm/cgemm pay a function construction + dict lookup on the hot path.
_sgemm_typed = _typed(np.float32)
_dgemm_typed = _typed(np.float64)
_cgemm_typed = _typed(np.complex64)
_zgemm_typed = _typed(np.complex128)


def sgemm(a, b, **kwargs):
    """Single-precision real GEMM (mode-sensitive)."""
    return _sgemm_typed(a, b, **kwargs)


def dgemm(a, b, **kwargs):
    """Double-precision real GEMM (always standard arithmetic)."""
    return _dgemm_typed(a, b, **kwargs)


def cgemm(a, b, **kwargs):
    """Single-precision complex GEMM — the routine DCMESH's LFD lives in."""
    return _cgemm_typed(a, b, **kwargs)


def zgemm(a, b, **kwargs):
    """Double-precision complex GEMM (only ``COMPLEX_3M`` applies)."""
    return _zgemm_typed(a, b, **kwargs)


# Re-export for modules that want to round storage explicitly.
round_storage = round_to_precision
