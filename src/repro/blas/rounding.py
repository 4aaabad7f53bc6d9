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

from typing import NamedTuple, Optional, Sequence, Tuple

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
    "OzakiSlices",
    "emulated_fp64_split_terms",
    "max_relative_error",
    "ozaki_max_relative_error",
]

#: Bits per Ozaki INT8 slice: 7 magnitude bits (slices are truncated
#: towards zero, so every slice value fits the signed-int8 range
#: [-127, 127] with the sign carried separately by the float).
OZAKI_SLICE_BITS = 7

#: Most slices :func:`ozaki_slice_terms` takes (the largest slice count
#: of ``OZAKI_INT8``).  Eight 7-bit slices already carry 56 significant
#: bits, more than FP32 storage can express.  Up to eight, the float32
#: slice form is exact: the deepest level ``2**-56`` and the kept pair
#: products' unit ``2**-63`` are normal float32 numbers.
OZAKI_MAX_SLICES = 8

#: Longest contraction over which an FP32 GEMM of float32 Ozaki slices
#: is exact: each of its products is an integer ``|q * q'| <= 127**2``
#: times the pair's level unit, so every partial sum stays an integer
#: number of units below ``2**24``, which FP32 holds exactly.
OZAKI_EXACT_K = (1 << 24) // (127 * 127)

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


class OzakiSlices(NamedTuple):
    """Ozaki slices of an operand whose fibres are its rows.

    ``slices`` is a C-contiguous ``(n_slices, *shape)`` stack:
    ``slices[i]`` holds ``q * 2**-(7 * (i + 1))`` with ``q`` an integer
    in ``[-127, 127]``, in float32 for finite FP32 input and in float64
    otherwise (see :func:`ozaki_slice_terms`).  ``exponents`` is the
    int32 per-fibre exponent ``e``, shaped ``(*shape[:-1], 1)``.
    ``slices * 2**exponents`` is, bit for bit, the float64 term stack
    (:meth:`terms`).
    """

    slices: np.ndarray
    exponents: np.ndarray

    def terms(self) -> np.ndarray:
        """The float64 slice terms ``slices[i] * 2**e``."""
        return np.ldexp(self.slices.astype(np.float64, copy=False), self.exponents)

    def select(self, index) -> "OzakiSlices":
        """The slices of the operand's elements ``index`` (views).

        ``index`` indexes the operand's axes, not the slice axis:
        ``select(0)`` is the real part of a ``(2, ...)`` re/im pair and
        ``select((..., slice(a, b), slice(None)))`` a block of rows.
        """
        index = index if isinstance(index, tuple) else (index,)
        return OzakiSlices(self.slices[(slice(None),) + index], self.exponents[index])


def ozaki_slice_terms(x: np.ndarray, n_slices: int) -> OzakiSlices:
    """Ozaki-scheme decomposition of ``x``'s rows into scaled-INT8 slices.

    Every element of ``x`` is written as a sum of ``n_slices`` terms
    ``q_i * 2**(e - 7*i)`` (``i = 1 .. n_slices``) where ``q_i`` is an
    integer in ``[-127, 127]`` (an INT8 value) and ``e`` is a shared
    power-of-two exponent per row — a *fibre*.  Callers lay the operand
    out with the GEMM's contraction axis last (``op(A)`` for the left
    operand, ``op(B)``ᵀ for the right one), so every dot product of the
    output sees one fixed scale per (slice, slice) pair and the
    INT8xINT8 -> INT32 accumulation is exact.  The result keeps each
    slice at its level, ``q_i * 2**(-7*i)``, apart from the exponents
    (:class:`OzakiSlices`).

    Finite FP32 input whose nonzero fibre maxima are all at least
    ``2**-128`` (so that ``2**-e`` is a float32) is sliced in float32,
    and every step is exact: ``max|x|`` and ``frexp`` are exact
    (``absmax < 2**e``); ``x * 2**-e`` is exact unless it underflows,
    and an element that underflows is below ``2**-126``, so its slices
    are zeros carrying its sign (``2**-126 * 2**56 < 1``), as in
    float64; multiplying the remainder by ``2**7``, truncating it and
    subtracting the integer part are exact below ``2**7``; and the level
    scale of an integer ``|q| <= 127`` is exact down to ``2**-56``.
    Other input — FP64, a fibre holding Inf/NaN or one whose scale
    ``2**-e`` overflows float32 — is sliced in float64, with
    ``np.ldexp`` scaling.  Either way :meth:`OzakiSlices.terms` equals the
    float64 formulation's terms ``ldexp(q_i, e - 7*i)`` bit for bit.

    After ``s`` slices the unrepresented remainder of an element is
    below ``2**(e - 7s)``, i.e. below ``2**(1-7s)`` of its fibre's
    absmax.
    """
    if not 1 <= n_slices <= OZAKI_MAX_SLICES:
        raise ValueError(f"n_slices must be in [1, {OZAKI_MAX_SLICES}], got {n_slices}")
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"ozaki_slice_terms needs >= 2-D input, got {x.ndim}-D")
    lost = None
    if x.dtype == np.float32:
        r = np.abs(x)  # the running remainder's buffer
        absmax = r.max(axis=-1, keepdims=True)
        _, e = np.frexp(absmax)  # zero fibres get e = 0
    if x.dtype == np.float32 and np.isfinite(absmax).all() and e.min(initial=0) >= -127:
        np.multiply(x, np.ldexp(np.float32(1.0), -e), out=r)  # |r| < 1
        # An element at or below 2**(e - 150) underflows to zero here
        # (possible from e = 1); its float64 remainder keeps x's sign,
        # so its later zero slices must too.
        if e.max(initial=0) >= 1 and (r == 0).any():
            lost = (r == 0) & (x != 0)
    else:
        x = np.ascontiguousarray(x, dtype=np.float64)
        _, e = np.frexp(np.max(np.abs(x), axis=-1, keepdims=True))
        r = np.ldexp(x, -e)  # |r| < 1, exact
    real = r.dtype.type
    stack = np.empty((n_slices,) + x.shape, dtype=r.dtype)
    for i in range(n_slices):
        q = stack[i]  # the slice is built in its slot
        np.multiply(r, real(1 << OZAKI_SLICE_BITS), out=r)  # |r| < 128, exact
        np.trunc(r, out=q)  # integer slice, |q| <= 127
        if i + 1 < n_slices:
            np.subtract(r, q, out=r)  # exact fractional remainder
        np.multiply(q, real(2.0 ** (-OZAKI_SLICE_BITS * (i + 1))), out=q)
    if lost is not None:
        stack[1:, lost] = np.copysign(real(0.0), x[lost])
    return OzakiSlices(stack, e)


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
