"""Bit-exact FP32 -> BF16 / TF32 rounding and multi-term splitting.

These are the primitives behind oneMKL's ``FLOAT_TO_BF16{,X2,X3}`` and
``FLOAT_TO_TF32`` compute modes.  Both target formats share FP32's
8-bit exponent, so converting is purely a mantissa truncation with
round-to-nearest-even (RNE), which we perform directly on the IEEE-754
bit patterns:

* BF16 keeps the top 7 of FP32's 23 mantissa bits (drops 16),
* TF32 keeps the top 10 (drops 13).

The RNE-on-bits trick: for ``d`` dropped bits, add ``2^(d-1) - 1`` plus
the guard bit (bit ``d`` of the original), then clear the low ``d``
bits.  Mantissa overflow carries into the exponent, which is exactly
IEEE round-up behaviour.  Since the exponent field width is unchanged,
denormals and the finite range are handled for free; Inf/NaN inputs are
passed through untouched.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.types import MANTISSA_BITS, Precision

__all__ = [
    "round_mantissa",
    "round_fp32_to_bf16",
    "round_fp32_to_tf32",
    "round_to_precision",
    "split_terms",
    "split_terms_residual",
    "extend_split",
    "split_bf16",
    "split_tf32",
    "ozaki_slice_terms",
    "emulated_fp64_split_terms",
    "max_relative_error",
    "ozaki_max_relative_error",
]

#: Bits per Ozaki INT8 slice: 7 magnitude bits (slices are truncated
#: towards zero, so every slice value fits the signed-int8 range
#: [-127, 127] with the sign carried separately by the float).
OZAKI_SLICE_BITS = 7

_FP32_MANTISSA = 23
_EXP_MASK = np.uint32(0x7F800000)


def round_mantissa(
    x: np.ndarray, keep_bits: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Round FP32 array ``x`` to ``keep_bits`` mantissa bits with RNE.

    Returns a *float32* array whose values are exactly representable in
    the reduced format (low ``23 - keep_bits`` mantissa bits are zero).
    The exponent range is unchanged (8 bits), matching BF16 and TF32.

    Parameters
    ----------
    x:
        Array convertible to ``float32``.  Inputs of other float widths
        are first cast to FP32 (itself an RNE rounding), mirroring what
        happens when data is handed to an FP32 BLAS call.
    keep_bits:
        Number of explicit mantissa bits to retain, in ``[0, 23]``.
    out:
        Optional C-contiguous float32 array of ``x``'s shape to write
        the result into (the split kernels pass one slot of their term
        stack).  It must not overlap ``x``.
    """
    if not 0 <= keep_bits <= _FP32_MANTISSA:
        raise ValueError(f"keep_bits must be in [0, 23], got {keep_bits}")
    x32 = np.ascontiguousarray(x, dtype=np.float32)
    if keep_bits == _FP32_MANTISSA:
        if out is not None:
            out[...] = x32
            return out
        return x32.copy() if x32 is x else x32
    drop = _FP32_MANTISSA - keep_bits
    u = x32.view(np.uint32)
    # Every step runs in place in the one result buffer.  All shift/mask
    # constants are np.uint32: mixing Python ints into uint32 ops relies
    # on NumPy's value-based casting, which NumPy >= 2 (NEP 50) resolves
    # differently (and loudly) — keep every operand in the array's dtype
    # so the arithmetic is unambiguous and warning-free.
    r = np.empty_like(u) if out is None else out.view(np.uint32)
    np.right_shift(u, np.uint32(drop), out=r)
    np.bitwise_and(r, np.uint32(1), out=r)  # guard bit
    np.add(r, np.uint32((1 << (drop - 1)) - 1), out=r)
    # `u + half + guard` wraps (mod 2^32) only for Inf/NaN patterns,
    # whose results are discarded by the restore below; for every finite
    # input the sum stays in range and a mantissa overflow carries into
    # the exponent — exactly IEEE round-up (see the regression test at
    # the all-ones-mantissa boundary).
    np.add(r, u, out=r)
    np.bitwise_and(r, np.uint32((0xFFFFFFFF << drop) & 0xFFFFFFFF), out=r)
    # Preserve Inf/NaN bit patterns, which the add above corrupts; the
    # mask pass is only paid when the input holds any.
    if not np.isfinite(x32).all():
        np.copyto(r, u, where=(u & _EXP_MASK) == _EXP_MASK)
    return r.view(np.float32)


def round_fp32_to_bf16(x: np.ndarray) -> np.ndarray:
    """Round to BF16 (7 mantissa bits), result stored in FP32."""
    return round_mantissa(x, MANTISSA_BITS[Precision.BF16])


def round_fp32_to_tf32(x: np.ndarray) -> np.ndarray:
    """Round to TF32 (10 mantissa bits), result stored in FP32."""
    return round_mantissa(x, MANTISSA_BITS[Precision.TF32])


def round_to_precision(x: np.ndarray, precision: Precision) -> np.ndarray:
    """Round FP32 data to ``precision``'s grid, keeping an FP32 carrier."""
    if precision in (Precision.FP32, Precision.FP64):
        return np.ascontiguousarray(x, dtype=np.float32)
    if precision is Precision.FP16:
        # FP16 narrows the exponent too; round-trip through the dtype.
        # Out-of-range values overflow to inf by design (IEEE behaviour).
        with np.errstate(over="ignore"):
            return np.asarray(x, dtype=np.float16).astype(np.float32)
    try:
        keep = MANTISSA_BITS[precision]
    except KeyError:
        raise ValueError(f"cannot round to {precision}") from None
    return round_mantissa(x, keep)


def split_terms(x: np.ndarray, keep_bits: int, n_terms: int) -> Tuple[np.ndarray, ...]:
    """Decompose FP32 ``x`` into ``n_terms`` reduced-precision components.

    Successive residual extraction: ``t1 = rnd(x)``, ``t2 = rnd(x - t1)``,
    ``t3 = rnd(x - t1 - t2)`` ... with residuals computed exactly in FP32
    (each subtraction is exact by Sterbenz-style cancellation whenever
    the rounding error is small relative to the operands, and at worst
    an FP32 rounding otherwise).  This is the decomposition oneMKL's
    ``FLOAT_TO_BF16X{2,3}`` modes use: ``x ~= t1 + t2 + t3`` with each
    term representable in BF16.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    residual = np.ascontiguousarray(x, dtype=np.float32)
    terms = []
    for _ in range(n_terms):
        t = round_mantissa(residual, keep_bits)
        terms.append(t)
        residual = residual - t
    return tuple(terms)


def split_terms_residual(
    x: np.ndarray, keep_bits: int, n_terms: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Like :func:`split_terms`, but the terms come back as one stack.

    Returns ``(stack, residual)``: ``stack`` is a C-contiguous
    ``(n_terms, *x.shape)`` float32 array whose slot ``i`` is bitwise
    equal to ``split_terms(x, keep_bits, n_terms)[i]`` (each term is
    rounded straight into its slot, so the engine reads the stack with
    no further packing), and ``residual`` is the final FP32 residual.

    The residual after ``n`` terms is the exact starting point for term
    ``n + 1``: because each term depends only on the running residual,
    the first ``n`` terms of an ``(n + k)``-term split are bitwise equal
    to the ``n``-term split.  Caching ``(stack, residual)`` therefore
    lets a precision escalation extend an existing split incrementally
    (one extra rounding + subtraction) instead of recomputing every
    term from scratch — see :meth:`repro.blas.plan.PreparedOperand`.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    x32 = np.ascontiguousarray(x, dtype=np.float32)
    stack = np.empty((n_terms,) + x32.shape, dtype=np.float32)
    return stack, _fill_terms(stack, 0, x32, keep_bits)


def extend_split(
    terms: Sequence[np.ndarray],
    residual: np.ndarray,
    keep_bits: int,
    extra_terms: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Append ``extra_terms`` more components to an existing split.

    ``terms``/``residual`` must come from :func:`split_terms_residual`
    with the same ``keep_bits``.  Returns ``(stack, residual)`` like
    that function; the stack is bitwise identical to a from-scratch
    ``split_terms_residual`` of the original array with
    ``len(terms) + extra_terms`` terms (prefix property: the FP32
    subtraction sequence is unchanged).  Neither input is modified.
    """
    if extra_terms < 1:
        raise ValueError(f"extra_terms must be >= 1, got {extra_terms}")
    n_old = len(terms)
    stack = np.empty((n_old + extra_terms,) + residual.shape, dtype=np.float32)
    stack[:n_old] = terms
    return stack, _fill_terms(stack, n_old, residual, keep_bits)


def _fill_terms(
    stack: np.ndarray, start: int, residual: np.ndarray, keep_bits: int
) -> np.ndarray:
    """Round ``stack[start:]`` from ``residual``; return the final residual.

    The first subtraction allocates the residual buffer (``residual``
    belongs to the caller); later ones update it in place.
    """
    for i in range(start, len(stack)):
        t = round_mantissa(residual, keep_bits, out=stack[i])
        if i == start:
            residual = residual - t
        else:
            np.subtract(residual, t, out=residual)
    return residual


def split_bf16(x: np.ndarray, n_terms: int) -> Tuple[np.ndarray, ...]:
    """BF16 multi-term split (see :func:`split_terms`)."""
    return split_terms(x, MANTISSA_BITS[Precision.BF16], n_terms)


def split_tf32(x: np.ndarray, n_terms: int = 1) -> Tuple[np.ndarray, ...]:
    """TF32 multi-term split (see :func:`split_terms`)."""
    return split_terms(x, MANTISSA_BITS[Precision.TF32], n_terms)


def ozaki_slice_terms(x: np.ndarray, n_slices: int, axis: int) -> np.ndarray:
    """Ozaki-scheme decomposition into scaled-INT8 slice terms.

    Every element of ``x`` is written as a sum of ``n_slices`` terms
    ``q_i * 2**(e - 7*(i+1))`` where ``q_i`` is an integer in
    ``[-127, 127]`` (an INT8 value) and ``e`` is a shared power-of-two
    exponent per 1-D fibre along ``axis`` — the *contraction* axis of
    the GEMM the terms feed (``axis=-1`` for the left operand's rows,
    ``axis=-2`` for the right operand's columns), so that every dot
    product in the output sees one fixed scale per (slice, slice) pair
    and the INT8xINT8 -> INT32 accumulation is exact.

    The terms are returned as one C-contiguous ``(n_slices, *x.shape)``
    *float64* stack holding those exactly representable scaled
    integers: a float64 matmul of two such terms
    is then a bit-exact emulation of the integer tensor-core product
    (each scalar product is ``q * q' * 2**(...)`` with ``|q*q'| <=
    127**2 < 2**14``, and the k-fold sum stays far below ``2**53``).

    Exactness of the decomposition arithmetic itself: the fibre scale
    comes from ``np.frexp`` (exact; ``absmax < 2**e``), the running
    remainder is multiplied by powers of two (exact), and truncation /
    fractional-part extraction of a float64 below 128 is exact.  After
    ``s`` slices the unrepresented remainder of an element is below
    ``2**(e - 7s)``, i.e. below ``2**(1-7s)`` of its fibre's absmax.

    Finite FP32 input scales by multiplying with the (exact) powers of
    two instead of calling ``np.ldexp``: its fibre exponents lie in
    ``[-148, 128]``, so every scale, scaled element and slice value is
    a normal float64 and each product is exact, bit for bit what
    ``ldexp`` returns.  Other input (FP64, or a fibre holding Inf/NaN)
    takes ``ldexp``.
    """
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"ozaki_slice_terms needs >= 2-D input, got {x.ndim}-D")
    if x.dtype != np.float32:
        x = np.ascontiguousarray(x, dtype=np.float64)
    # max|x| is exact in x's own width, and widening it is exact.
    absmax = np.max(np.abs(x), axis=axis, keepdims=True).astype(np.float64, copy=False)
    # frexp: absmax = f * 2**e with f in [0.5, 1) -> absmax < 2**e and
    # the scale is an exact power of two (zero fibres get e = 0).
    _, e = np.frexp(absmax)
    by_multiply = x.dtype == np.float32 and bool(np.isfinite(absmax).all())
    if not by_multiply:
        x = np.ascontiguousarray(x, dtype=np.float64)  # ldexp runs in x's width

    def scale(y, k, out):
        # y * 2**k into ``out`` (float64): exact either way.
        if by_multiply:
            return np.multiply(y, np.ldexp(1.0, k), out=out)
        return np.ldexp(y, k, out=out)

    r = scale(x, -e, np.empty(x.shape))  # |r| < 1, exact
    radix = float(1 << OZAKI_SLICE_BITS)
    stack = np.empty((n_slices,) + x.shape)
    for i in range(n_slices):
        q = stack[i]                    # the slice is built in its slot
        np.multiply(r, radix, out=r)    # |r| < 128, exact
        np.trunc(r, out=q)              # integer slice, |q| <= 127
        np.subtract(r, q, out=r)        # exact fractional remainder
        scale(q, e - OZAKI_SLICE_BITS * (i + 1), q)
    return stack


def emulated_fp64_split_terms(x: np.ndarray, n_terms: int) -> np.ndarray:
    """Decompose FP64 data into ``n_terms`` FP32-representable terms.

    Greedy residual extraction at FP32 granularity: ``t1 = fp32(x)``,
    ``t2 = fp32(x - t1)``, ... with the residuals computed exactly in
    FP64 (each term is exactly representable in FP64, and the
    subtraction cancels the shared leading bits).  Three 24-bit
    significands carry 72 > 53 bits, so for inputs within FP32's
    exponent range the three-term split is *exact* — the basis of the
    emulated-FP64 compute mode, where FP32-term pair products (each
    exact: 24+24 <= 53 bits) are accumulated in FP64.

    The terms are returned as one C-contiguous ``(n_terms, *x.shape)``
    float64 stack holding FP32-representable values, ready for exact
    pair products under float64 matmul.  FP32 input is its own first
    term: one widening cast fills it.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    x = np.asarray(x)
    stack = np.empty((n_terms,) + x.shape)
    if x.dtype == np.float32:
        np.copyto(stack[0], x)  # exact: equals fp32(float64(x)) widened
        residual = stack[0]
    else:
        residual = np.ascontiguousarray(x, dtype=np.float64)
        stack[0] = residual.astype(np.float32)  # widening back is exact
    for i in range(1, n_terms):
        if i == 1:
            residual = residual - stack[0]  # a new buffer: ``x`` stays intact
        else:
            np.subtract(residual, stack[i - 1], out=residual)
        stack[i] = residual.astype(np.float32)
    return stack


def max_relative_error(keep_bits: int) -> float:
    """Worst-case relative input error of rounding to ``keep_bits``.

    Section V-B of the paper: rounding off all but the lowest ``n``
    mantissa bits induces at most a ``2**-(n+1)`` relative perturbation
    of each (normal) input.
    """
    return 2.0 ** -(keep_bits + 1)


def ozaki_max_relative_error(n_slices: int) -> float:
    """Analytic relative-error level of an ``n_slices`` Ozaki GEMM.

    Each input element is represented to within ``2**(1 - 7s)`` of its
    fibre's absmax (see :func:`ozaki_slice_terms`), so a dot product
    carries a perturbation of roughly twice that relative to the
    ``k * rowmax * colmax`` scale: ``2**-(7s - 1)`` — ``2**-20`` at the
    default three slices, between BF16x2 and FP32 on the error ladder.
    """
    if n_slices < 1:
        raise ValueError(f"n_slices must be >= 1, got {n_slices}")
    return 2.0 ** -(OZAKI_SLICE_BITS * n_slices - 1)
