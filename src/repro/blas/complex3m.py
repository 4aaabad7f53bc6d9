"""Complex matrix multiplication kernels: standard 4M and 3M variants.

A complex product ``(Ar + i Ai)(Br + i Bi)`` normally takes four real
GEMMs (the "4M" decomposition)::

    Cr = Ar Br - Ai Bi
    Ci = Ar Bi + Ai Br

The ``COMPLEX_3M`` mode replaces this with three (Karatsuba-style)::

    t1 = Ar Br
    t2 = Ai Bi
    t3 = (Ar + Ai)(Br + Bi)
    Cr = t1 - t2
    Ci = t3 - t1 - t2

improving peak level-3 throughput by 4/3 at the cost of extra
additions and *different numerical cancellation behaviour* (the paper,
Section III-B): ``t3 - t1 - t2`` can cancel catastrophically when
``Ar Bi ~ -Ai Br`` yet ``t1, t2`` are large.

Both variants accept a ``real_gemm`` callable so the low-precision
split engines can be plugged underneath (MKL composes the modes the
same way for ``cgemm``).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from repro.blas import backend as _backend
from repro.blas.plan import PAIR
from repro.telemetry.provenance import current_site_id as _current_site_id
from repro.telemetry.registry import active as _telemetry_active

__all__ = ["gemm_4m", "gemm_3m", "gemm_4m_split_planned", "gemm_3m_planned"]


def _count_kernel(variant: str) -> None:
    """Per-variant complex-kernel counter (no-op while telemetry is off)."""
    t = _telemetry_active()
    if t is not None:
        t.count("blas.complex_kernels", variant=variant, site=_current_site_id() or "-")

RealGemm = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _default_real_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a, b)


def _parts(x: np.ndarray, real_dtype: np.dtype):
    # ascontiguousarray: .real/.imag of a complex array are strided
    # views; BLAS-style kernels (and the split engines) want packed data.
    return (
        np.ascontiguousarray(x.real, dtype=real_dtype),
        np.ascontiguousarray(x.imag, dtype=real_dtype),
    )


def _check(a: np.ndarray, b: np.ndarray) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(
            f"complex gemm needs >= 2-D inputs, got {a.ndim}-D and {b.ndim}-D"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")


def gemm_4m(
    a: np.ndarray,
    b: np.ndarray,
    real_gemm: Optional[RealGemm] = None,
) -> np.ndarray:
    """Standard 4-multiplication complex GEMM built on real GEMMs."""
    _check(a, b)
    _count_kernel("4m")
    rg = real_gemm or _default_real_gemm
    cdt = np.result_type(a.dtype, b.dtype, np.complex64)
    rdt = np.float64 if cdt == np.complex128 else np.float32
    ar, ai = _parts(a, rdt)
    br, bi = _parts(b, rdt)
    cr = rg(ar, br) - rg(ai, bi)
    ci = rg(ar, bi) + rg(ai, br)
    out = np.empty(cr.shape, dtype=cdt)
    out.real = cr
    out.imag = ci
    return out


def gemm_3m(
    a: np.ndarray,
    b: np.ndarray,
    real_gemm: Optional[RealGemm] = None,
) -> np.ndarray:
    """3-multiplication (``COMPLEX_3M``) complex GEMM."""
    _check(a, b)
    _count_kernel("3m")
    rg = real_gemm or _default_real_gemm
    cdt = np.result_type(a.dtype, b.dtype, np.complex64)
    rdt = np.float64 if cdt == np.complex128 else np.float32
    ar, ai = _parts(a, rdt)
    br, bi = _parts(b, rdt)
    t1 = rg(ar, br)
    t2 = rg(ai, bi)
    t3 = rg(ar + ai, br + bi)
    out = np.empty(t1.shape, dtype=cdt)
    out.real = t1 - t2
    out.imag = t3 - t1 - t2
    return out


# ----------------------------------------------------------------------
# Plan-aware variants: same arithmetic, cached decompositions.
#
# The handles (:class:`repro.blas.plan.OrientedOperand`) serve the
# contiguous real/imag parts — and, for the split path, their stacked
# component terms — from the operand's plan, so a frozen operand's
# packing/rounding work is not repeated per call.  The formulas and
# every accumulation order are identical to the callable-based kernels
# above, which the golden property tests verify bitwise.
# ----------------------------------------------------------------------


#: Largest ``(2, 2, m, n)`` block of part products, in bytes, that
#: :func:`gemm_4m_split_planned` computes with one broadcast matmul per
#: component pair.  Above it the four part products run one after the
#: other, so fewer ``m x n`` accumulators are live at once: batching
#: ``nlp_prop``'s ``N_grid x N_orb`` Psi update raises that GEMM's
#: traced peak from 2.5 to 6.0 times Psi's bytes under EMULATED_FP64
#: (2.0 to 3.0 under BF16X3).
BATCH_PAIRS_MAX_BYTES = 256 << 10


def gemm_4m_split_planned(a_handle, b_handle, lowering, backend=None) -> np.ndarray:
    """4M complex GEMM with split-precision component real GEMMs.

    This is ``gemm_4m(a, b, real_gemm=split_gemm_real)`` routed through
    prepared operands: each operand's re/im pair is split once (one
    stack, see :data:`repro.blas.plan.PAIR`) and the component products
    run on the fused engine.  While the ``(2, 2, m, n)`` block stays
    under :data:`BATCH_PAIRS_MAX_BYTES`, each component pair is one
    broadcast matmul computing all four part products, and ``Cr`` and
    ``Ci`` are written from the block straight into the output; larger
    outputs run the four part products one at a time.  Every part
    product is the same 2-D product, accumulated in the same pair
    order, either way.  ``lowering`` (a
    :class:`repro.blas.modes.Lowering` of a split family) selects the
    split.  The component products execute on ``backend`` (default: the
    ambient :func:`repro.blas.backend.active_backend`); the Cr/Ci
    assembly is cheap element-wise work and stays in NumPy.
    """
    from repro.blas.workspace import split_gemm_fused

    be = _backend.active_backend() if backend is None else backend
    _count_kernel("4m_split_planned")
    cdt = np.dtype(a_handle.dtype)
    out_shape = np.broadcast_shapes(a_handle.shape[:-2], b_handle.shape[:-2]) + (
        a_handle.shape[-2],
        b_handle.shape[-1],
    )
    # Ozaki and emulated-FP64 products accumulate in float64.
    acc_bytes = 8 if lowering.family in ("ozaki", "efp64") else 4
    if 4 * acc_bytes * math.prod(out_shape) <= BATCH_PAIRS_MAX_BYTES:
        block = split_gemm_fused(
            a_handle, b_handle, lowering, part_a=PAIR, part_b=PAIR, backend=be
        )
        out = np.empty(block.shape[2:], dtype=cdt)
        np.subtract(block[0, 0], block[1, 1], out=out.real)
        np.add(block[0, 1], block[1, 0], out=out.imag)
        return out
    cr = split_gemm_fused(
        a_handle, b_handle, lowering, part_a="re", part_b="re", backend=be
    ) - split_gemm_fused(
        a_handle, b_handle, lowering, part_a="im", part_b="im", backend=be
    )
    ci = split_gemm_fused(
        a_handle, b_handle, lowering, part_a="re", part_b="im", backend=be
    ) + split_gemm_fused(
        a_handle, b_handle, lowering, part_a="im", part_b="re", backend=be
    )
    out = np.empty(cr.shape, dtype=cdt)
    out.real = cr
    out.imag = ci
    return out


def gemm_3m_planned(a_handle, b_handle, backend=None) -> np.ndarray:
    """3M complex GEMM over prepared operands (standard FP arithmetic).

    The ``Ar + Ai`` / ``Br + Bi`` sum terms are cached on the plan
    alongside the parts, so a frozen operand contributes zero per-call
    packing work.  The three real products run on ``backend``; the
    ``t3 - t1 - t2`` recombination (the mode's signature cancellation)
    stays in NumPy FP so its behaviour is backend-independent.
    """
    be = _backend.active_backend() if backend is None else backend
    _count_kernel("3m_planned")
    cdt = np.dtype(a_handle.dtype)
    t1 = be.to_numpy(be.matmul(a_handle.part_native(be, "re"), b_handle.part_native(be, "re")))
    t2 = be.to_numpy(be.matmul(a_handle.part_native(be, "im"), b_handle.part_native(be, "im")))
    t3 = be.to_numpy(
        be.matmul(a_handle.part_native(be, "re+im"), b_handle.part_native(be, "re+im"))
    )
    out = np.empty(t1.shape, dtype=cdt)
    out.real = t1 - t2
    out.imag = t3 - t1 - t2
    return out
