"""Batched GEMM (the ``cblas_?gemm_batch_strided`` family).

oneMKL's alternative compute modes cover the batched level-3 routines
with the same semantics as the single-call ones; DCMESH-like codes use
them for per-atom projector applications and blocked orbital updates.
This entry point mirrors :func:`repro.blas.gemm.gemm` for stacked
operands ``(batch, m, k) @ (batch, k, n)`` — identical mode resolution
(explicit > site policy > ambient) and dispatch, device-model booking
(one launch amortised over the batch) and a single MKL_VERBOSE record
carrying the batch count.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.blas.gemm import _dispatch
from repro.blas.modes import ComputeMode

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
    return _dispatch("gemm_batch", a, b, alpha, trans_a, trans_b, mode)
