"""Batched GEMM (the ``cblas_?gemm_batch_strided`` family).

oneMKL's alternative compute modes cover the batched level-3 routines
with the same semantics as the single-call ones; DCMESH-like codes use
them for per-atom projector applications and blocked orbital updates.
This entry point mirrors :func:`repro.blas.gemm.gemm` for stacked
operands ``(batch, m, k) @ (batch, k, n)`` — identical mode dispatch,
device-model booking (one launch amortised over the batch) and a
single MKL_VERBOSE record carrying the batch count.
"""

from __future__ import annotations

import time
from typing import Union

import numpy as np

from repro.blas import backend as _backend
from repro.blas.gemm import (
    _assert_finite,
    _compute,
    _current_site,
    _routine_name,
    _working_dtype,
    current_device,
    finite_checks_enabled,
)
from repro.blas.modes import ComputeMode, resolve_mode
from repro.blas.plan import PreparedOperand, operand_handle
from repro.blas.verbose import VerboseRecord, emit_call, observing
from repro.telemetry.provenance import register_call_site, site_scope
from repro.telemetry.registry import active as _telemetry_active

__all__ = ["gemm_batch"]


def gemm_batch(
    a: np.ndarray,
    b: np.ndarray,
    *,
    alpha: Union[float, complex] = 1.0,
    trans_a: str = "N",
    trans_b: str = "N",
    mode: Union[str, ComputeMode, None] = None,
) -> np.ndarray:
    """Batched matrix multiply: ``out[i] = alpha * op(A[i]) @ op(B[i])``.

    Parameters
    ----------
    a, b:
        3-D stacks with matching leading (batch) dimension.
    alpha, trans_a, trans_b, mode:
        As in :func:`repro.blas.gemm.gemm`.
    """
    a_plan = a if isinstance(a, PreparedOperand) else None
    b_plan = b if isinstance(b, PreparedOperand) else None
    a_arr = a_plan.array if a_plan is not None else np.asarray(a)
    b_arr = b_plan.array if b_plan is not None else np.asarray(b)
    if a_arr.ndim != 3 or b_arr.ndim != 3:
        raise ValueError(
            f"gemm_batch requires 3-D stacks, got {a_arr.ndim}-D and {b_arr.ndim}-D"
        )
    if a_arr.shape[0] != b_arr.shape[0]:
        raise ValueError(
            f"batch dimensions differ: {a_arr.shape[0]} vs {b_arr.shape[0]}"
        )
    if finite_checks_enabled():
        _assert_finite("gemm_batch", a_arr, b_arr, a_plan, b_plan)

    dtype = _working_dtype(a_arr, b_arr)
    effective = resolve_mode(mode)
    routine = _routine_name(dtype)
    a_h = operand_handle(a_plan if a_plan is not None else a_arr, trans_a, dtype)
    b_h = operand_handle(b_plan if b_plan is not None else b_arr, trans_b, dtype)
    if a_h.shape[-1] != b_h.shape[-2]:
        raise ValueError(
            f"inner dimensions differ: op(A) {a_h.shape} @ op(B) {b_h.shape}"
        )
    batch, m, k = a_h.shape
    n = b_h.shape[-1]

    site_id = ""
    if _telemetry_active() is not None:
        site_id = register_call_site(
            _current_site() or "-", "gemm_batch", routine, m, n, k, batch
        )

    be = _backend.active_backend()
    t0 = time.perf_counter()
    if site_id:
        with site_scope(site_id):
            out = _compute(a_h, b_h, effective, dtype, be)
    else:
        out = _compute(a_h, b_h, effective, dtype, be)
    wall = time.perf_counter() - t0
    if alpha != 1.0:
        out = (alpha * out).astype(dtype, copy=False)

    device = current_device()
    model_seconds = None
    if device is not None:
        model_seconds = device.record_gemm_batch(
            routine=routine, m=m, n=n, k=k, batch=batch,
            mode=effective, site=_current_site(),
        )
    if observing():
        emit_call(
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
                site=_current_site(),
                batch=batch,
                site_id=site_id,
                backend=be.cache_key,
            )
        )
    return out
