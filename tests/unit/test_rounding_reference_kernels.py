"""Unit tests: the in-place split kernels equal their out-of-place forms.

The golden GEMM suites compare the GEMM paths with references that
themselves call :mod:`repro.blas.rounding`, so they cannot see a bit
change inside these kernels.  This file keeps the straightforward
out-of-place formulation of each kernel (one fresh array per step,
terms collected in a tuple) and checks the production kernels against
it bit for bit, over random bit patterns that include NaN, Inf and
denormal values.
"""

import numpy as np
import pytest

from repro.blas.rounding import (
    OZAKI_SLICE_BITS,
    emulated_fp64_split_terms,
    extend_split,
    ozaki_slice_terms,
    round_mantissa,
    split_terms,
    split_terms_residual,
)

_EXP_MASK = np.uint32(0x7F800000)

#: FP32 patterns every case includes: signed zeros, the smallest and
#: largest denormals, FLT_MAX, +-Inf, quiet/signalling/all-ones NaNs,
#: and all-ones mantissas that carry into the exponent when rounded up.
_SPECIAL_FP32 = np.array(
    [
        0x00000000, 0x80000000, 0x00000001, 0x807FFFFF, 0x007FFFFF,
        0x7F7FFFFF, 0xFF7FFFFF, 0x7F800000, 0xFF800000, 0x7F800001,
        0x7FC00000, 0xFFC00001, 0xFFFFFFFF, 0x3FFFFFFF, 0x3F80FFFF,
        0x3F808000, 0x3F818000, 0x3F801000, 0x3F803000,
    ],
    dtype=np.uint32,
)


def _ref_round_mantissa(x, keep_bits):
    u = np.ascontiguousarray(x, dtype=np.float32).view(np.uint32)
    drop = 23 - keep_bits
    half = np.uint32((1 << (drop - 1)) - 1)
    guard = (u >> np.uint32(drop)) & np.uint32(1)
    keep_mask = np.uint32((0xFFFFFFFF << drop) & 0xFFFFFFFF)
    rounded = (u + half + guard) & keep_mask
    special = (u & _EXP_MASK) == _EXP_MASK
    return np.where(special, u, rounded).view(np.float32)


def _ref_split(x, keep_bits, n_terms):
    residual = np.ascontiguousarray(x, dtype=np.float32)
    terms = []
    for _ in range(n_terms):
        t = _ref_round_mantissa(residual, keep_bits)
        terms.append(t)
        residual = residual - t
    return tuple(terms), residual


def _ref_ozaki(x, n_slices, axis):
    x64 = np.ascontiguousarray(x, dtype=np.float64)
    _, e = np.frexp(np.max(np.abs(x64), axis=axis, keepdims=True))
    r = np.ldexp(x64, -e)
    radix = float(1 << OZAKI_SLICE_BITS)
    terms = []
    for i in range(n_slices):
        shifted = r * radix
        q = np.trunc(shifted)
        r = shifted - q
        terms.append(np.ldexp(q, e - OZAKI_SLICE_BITS * (i + 1)))
    return tuple(terms)


def _ref_efp64(x, n_terms):
    residual = np.ascontiguousarray(x, dtype=np.float64)
    terms = []
    for _ in range(n_terms):
        t = residual.astype(np.float32).astype(np.float64)
        terms.append(t)
        residual = residual - t
    return tuple(terms)


def _fp32_patterns(seed, shape=(48, 40)):
    """Random FP32 bit patterns (about 1 in 256 is Inf/NaN, 1 in 256
    denormal or zero) with the special patterns planted up front."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 1 << 32, size=shape, dtype=np.uint64).astype(np.uint32)
    bits.reshape(-1)[: _SPECIAL_FP32.size] = _SPECIAL_FP32
    return bits.view(np.float32)


def _fp32_range_ends(seed, shape=(24, 20)):
    """Finite FP32 data whose fibre maxima sit at both ends of FP32's
    range — near 2**127 and at the denormal floor — with zero fibres
    along both axes (the cases where scaling by a product of powers of
    two must still equal ``ldexp`` bit for bit)."""
    rng = np.random.default_rng(seed)
    mant = rng.uniform(-2.0, 2.0, size=shape)
    x = np.empty(shape, dtype=np.float32)
    x[:8] = mant[:8] * 2.0**126
    x[8:16] = mant[8:16] * 2.0**-148
    x[16:] = mant[16:] * 2.0 ** rng.integers(-149, 127, size=(shape[0] - 16, shape[1]))
    x[0, 0] = np.finfo(np.float32).max
    x[9, 1] = np.float32(2.0**-149)
    x[10] = -0.0
    x[:, 4] = 0.0
    return x


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    view = np.uint32 if got.dtype.itemsize == 4 else np.uint64
    np.testing.assert_array_equal(got.view(view), want.view(view))


@pytest.fixture(autouse=True)
def _quiet_fp():
    with np.errstate(all="ignore"):
        yield


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("keep_bits", [7, 10, 13])
class TestRoundingKernels:
    def test_round_mantissa(self, seed, keep_bits):
        x = _fp32_patterns(seed)
        want = _ref_round_mantissa(x, keep_bits)
        _assert_same_bits(round_mantissa(x, keep_bits), want)
        out = np.empty_like(x)
        assert np.shares_memory(round_mantissa(x, keep_bits, out=out), out)
        _assert_same_bits(out, want)

    def test_round_mantissa_finite_input(self, seed, keep_bits):
        # No Inf/NaN: the kernel skips its restore pass entirely.
        x = _fp32_patterns(seed)
        x = np.where(np.isfinite(x), x, np.float32(1.0))
        _assert_same_bits(round_mantissa(x, keep_bits), _ref_round_mantissa(x, keep_bits))

    @pytest.mark.parametrize("n_terms", [1, 2, 3])
    def test_split_stack_and_residual(self, seed, keep_bits, n_terms):
        x = _fp32_patterns(seed)
        want_terms, want_resid = _ref_split(x, keep_bits, n_terms)
        stack, resid = split_terms_residual(x, keep_bits, n_terms)
        assert stack.shape == (n_terms,) + x.shape and stack.flags.c_contiguous
        for got, want in zip(stack, want_terms):
            _assert_same_bits(got, want)
        _assert_same_bits(resid, want_resid)
        for got, want in zip(split_terms(x, keep_bits, n_terms), want_terms):
            _assert_same_bits(got, want)

    def test_extend_split(self, seed, keep_bits):
        x = _fp32_patterns(seed)
        want_terms, want_resid = _ref_split(x, keep_bits, 3)
        stack1, resid1 = split_terms_residual(x, keep_bits, 1)
        kept = (stack1.copy(), resid1.copy())
        stack, resid = extend_split(stack1, resid1, keep_bits, 2)
        for got, want in zip(stack, want_terms):
            _assert_same_bits(got, want)
        _assert_same_bits(resid, want_resid)
        _assert_same_bits(stack1, kept[0])  # inputs untouched
        _assert_same_bits(resid1, kept[1])


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestSliceKernels:
    @pytest.mark.parametrize("n_slices", [1, 2, 3])
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_ozaki_stack(self, seed, n_slices, axis):
        x = _fp32_patterns(seed)
        x[3] = 0.0  # a zero fibre along either axis
        x[:, 5] = 0.0
        finite = np.where(np.isfinite(x), x, np.float32(0.0))
        for data in (x, finite, _fp32_range_ends(seed)):
            stack = ozaki_slice_terms(data, n_slices, axis=axis)
            assert stack.shape == (n_slices,) + data.shape and stack.flags.c_contiguous
            for got, want in zip(stack, _ref_ozaki(data, n_slices, axis)):
                _assert_same_bits(got, want)

    @pytest.mark.parametrize("n_terms", [1, 2, 3])
    def test_emulated_fp64_stack(self, seed, n_terms):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, np.iinfo(np.uint64).max, size=(40, 36), dtype=np.uint64)
        x64 = bits.view(np.float64)
        # Planted: values in FP32's range with long mantissas, FP64-only
        # denormals and magnitudes, and the FP64 Inf/NaN patterns.
        x64[0, :8] = [1 / 3, -np.pi, 1e-300, -1e300, 5e-324, np.inf, -np.inf, np.nan]
        x32 = _fp32_patterns(seed, shape=(40, 36))
        for data in (x64, x32):
            original = data.copy()
            stack = emulated_fp64_split_terms(data, n_terms)
            assert stack.shape == (n_terms,) + data.shape and stack.dtype == np.float64
            for got, want in zip(stack, _ref_efp64(data, n_terms)):
                _assert_same_bits(got, want)
            _assert_same_bits(data, original)  # the input stays intact
