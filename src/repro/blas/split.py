"""Split-precision real GEMM engines (BF16x{1,2,3}, TF32).

Each FP32 input matrix is decomposed into ``n`` reduced-precision
terms (:func:`repro.blas.rounding.split_terms`); the component product
matrices are then multiplied with FP32 accumulation — exactly what the
XMX systolic arrays do — and summed most-significant-first.

Component selection: for an ``n``-term split of both inputs oneMKL
computes the pairs ``(i, j)`` with ``i + j <= n + 1``.  Pairs beyond
that contribute below the final rounding error (each term is ~``2^-8``
of the previous for BF16), so skipping them preserves accuracy while
keeping the cost at ``n(n+1)/2`` products — the source of Table II's
peak speedups (16x, 16/3x, 8/3x for x1/x2/x3).

A BF16 x BF16 product (8 x 8 significant bits) and a TF32 x TF32
product (11 x 11) are both exact in FP32, so ``np.matmul`` on float32
component matrices is a *bit-exact* emulation of the hardware's
multiply stage; only the accumulation order may differ, which is the
same freedom any BLAS implementation has.
"""

from __future__ import annotations

import numpy as np

from repro.types import Precision

__all__ = [
    "split_gemm_real",
    "component_pairs",
]


def component_pairs(n_terms: int):
    """Ordered component-product index pairs for an ``n_terms`` split.

    Pairs ``(i, j)`` (1-based) with ``i + j <= n_terms + 1``, ordered by
    significance (ascending ``i + j``) so accumulation adds the most
    significant contributions first.
    """
    pairs = [
        (i, j)
        for i in range(1, n_terms + 1)
        for j in range(1, n_terms + 1)
        if i + j <= n_terms + 1
    ]
    pairs.sort(key=lambda ij: (ij[0] + ij[1], ij[0]))
    return pairs


def split_gemm_real(
    a: np.ndarray,
    b: np.ndarray,
    precision: Precision,
    n_terms: int,
) -> np.ndarray:
    """Compute ``a @ b`` with split-precision inputs, FP32 accumulation.

    Routed through the split-plan layer: a :class:`repro.blas.plan.
    PreparedOperand` serves its cached splits, a plain array is split
    once for this call, and the component products run on the fused
    engine (:mod:`repro.blas.workspace`) under the ambient
    :func:`repro.blas.backend.active_backend`.  Results are bitwise
    identical to the naive per-pair reference of the golden test suites
    on the NumPy backend; other backends carry the documented tolerance
    contracts (docs/BACKENDS.md).

    Parameters
    ----------
    a, b:
        Real FP32 operands with matmul-compatible shapes: plain 2-D
        matrices or stacked batches ``(..., m, k) @ (..., k, n)``,
        already in the orientation to be multiplied (any transposition
        resolved by the caller).  Either
        may be a :class:`repro.blas.plan.PreparedOperand` wrapping such
        an array.
    precision:
        Component format (``Precision.BF16`` or ``Precision.TF32``).
    n_terms:
        Number of split terms per input (1, 2 or 3 in oneMKL).
    """
    from repro.blas.modes import Lowering
    from repro.blas.plan import operand_handle
    from repro.blas.workspace import split_gemm_fused

    a_arr = a.array if hasattr(a, "array") else np.asarray(a)
    b_arr = b.array if hasattr(b, "array") else np.asarray(b)
    if a_arr.ndim < 2 or b_arr.ndim < 2:
        raise ValueError(
            f"split_gemm_real needs >= 2-D inputs, got {a_arr.ndim}-D and {b_arr.ndim}-D"
        )
    if a_arr.shape[-1] != b_arr.shape[-2]:
        raise ValueError(f"inner dimensions differ: {a_arr.shape} @ {b_arr.shape}")
    a_h = operand_handle(a, "N", np.float32)
    b_h = operand_handle(b, "N", np.float32)
    return split_gemm_fused(a_h, b_h, Lowering(None, "split", precision, n_terms))

