"""Naive reference GEMMs: the golden oracles of the split-GEMM suites.

Each is the original per-pair implementation — fresh temporaries,
most-significant-first accumulation over
:func:`repro.blas.split.component_pairs` — written from the kept
rounding kernels in pure NumPy, *on purpose* never touching
:mod:`repro.blas.backend`, plans or workspaces.  The routed, fused and
cached GEMM paths must match them *bitwise* for all inputs
(``tests/property/test_prop_plan_golden.py``,
``tests/property/test_prop_newmodes.py``).

``tests/conftest.py`` puts this directory on ``sys.path``, so test
modules import it as ``gemm_oracles``.
"""

import numpy as np

from repro.blas.rounding import (
    OZAKI_SLICE_BITS,
    emulated_fp64_split_terms,
    split_terms,
)
from repro.blas.split import component_pairs
from repro.types import MANTISSA_BITS


def _check_shapes(name, a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"{name} needs >= 2-D inputs, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")


def _pair_sum(a_terms, b_terms, n_terms):
    out = None
    for i, j in component_pairs(n_terms):
        prod = np.matmul(a_terms[i - 1], b_terms[j - 1])
        out = prod if out is None else out + prod
    return out


def split_gemm_reference(a, b, precision, n_terms):
    """BF16/TF32 split GEMM: FP32 component products, FP32 accumulation
    (a float32 matmul is exact component products + FP32 accumulate)."""
    _check_shapes("split_gemm_reference", a, b)
    keep = MANTISSA_BITS[precision]
    return _pair_sum(split_terms(a, keep, n_terms), split_terms(b, keep, n_terms), n_terms)


def ozaki_slice_terms_reference(x, n_slices, axis):
    """The float64 Ozaki slicing: ``(n_slices, *x.shape)`` terms
    ``q_i * 2**(e - 7i)`` with one power-of-two exponent ``e`` per fibre
    along ``axis`` (``np.frexp`` of the fibre's absmax; ``np.ldexp``
    scaling, exact in float64)."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    _, e = np.frexp(np.max(np.abs(x), axis=axis, keepdims=True))
    r = np.ldexp(x, -e)
    stack = np.empty((n_slices,) + x.shape)
    for i in range(n_slices):
        r = r * float(1 << OZAKI_SLICE_BITS)
        stack[i] = np.trunc(r)
        r = r - stack[i]
        stack[i] = np.ldexp(stack[i], e - OZAKI_SLICE_BITS * (i + 1))
    return stack


def ozaki_gemm_reference(a, b, n_slices):
    """Ozaki-scheme INT8 GEMM: slices along each operand's contraction
    axis, float64 slice-pair products (exact emulations of INT8 x INT8
    with INT32 accumulation), summed and rounded once to FP32."""
    _check_shapes("ozaki_gemm_reference", a, b)
    a_terms = ozaki_slice_terms_reference(a, n_slices, axis=-1)
    b_terms = ozaki_slice_terms_reference(b, n_slices, axis=-2)
    return _pair_sum(a_terms, b_terms, n_slices).astype(np.float32)


def emulated_fp64_gemm_reference(a, b, n_terms=None):
    """Emulated-FP64 GEMM: FP32-representable terms, float64 pair
    products and accumulation; the result keeps the input's real width.

    By default an FP64 operand takes three terms (72 > 53 significand
    bits reconstruct it exactly) and an FP32 operand one."""
    _check_shapes("emulated_fp64_gemm_reference", a, b)
    double = np.dtype(a.dtype) == np.dtype(np.float64)
    if n_terms is None:
        n_terms = 3 if double else 1
    a_terms = emulated_fp64_split_terms(a, n_terms)
    b_terms = emulated_fp64_split_terms(b, n_terms)
    rdt = np.float64 if double else np.float32
    return _pair_sum(a_terms, b_terms, n_terms).astype(rdt)
