"""Unit tests: the in-place split kernels equal their out-of-place forms.

The golden GEMM suites compare the GEMM paths with references that
themselves call :mod:`repro.blas.rounding`, so they cannot see a bit
change inside these kernels.  This file keeps the straightforward
out-of-place formulation of each kernel (one fresh array per step,
terms collected in a tuple) and checks the production kernels against
it bit for bit, over random bit patterns that include NaN, Inf and
denormal values.  The Ozaki kernel slices in float32: its slices times
``2**e`` must equal the float64 formulation's terms.
"""

import numpy as np
import pytest

from repro.blas.rounding import (
    OZAKI_SLICE_BITS,
    OzakiSlices,
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


def _ozaki_terms(x, n_slices, axis):
    """``ozaki_slice_terms`` of ``x``'s fibres along ``axis`` as float64
    terms in ``x``'s layout (slices times ``2**e``), and its form."""
    rows = np.ascontiguousarray(x if axis == -1 else x.T)
    form = ozaki_slice_terms(rows, n_slices)
    stack, e = form
    assert isinstance(form, OzakiSlices)
    assert stack.dtype in (np.float32, np.float64) and stack.flags.c_contiguous
    assert stack.shape == (n_slices,) + rows.shape
    assert e.shape == rows.shape[:-1] + (1,) and e.dtype.kind == "i"
    terms = form.terms()
    if stack.dtype == np.float32:  # every term is exact: ldexp is a multiply
        _assert_same_bits(terms, stack.astype(np.float64) * np.ldexp(1.0, e))
    return (terms if axis == -1 else np.swapaxes(terms, -1, -2)), form


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestSliceKernels:
    @pytest.mark.parametrize("n_slices", range(1, 9))
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_ozaki_stack(self, seed, n_slices, axis):
        # Both fibre orientations, s = 1..8: slice_i * 2**e equals the
        # float64 formulation's term i bit for bit.  Input holding
        # Inf/NaN, or fibres whose scale 2**-e overflows float32 (the
        # denormal-floor rows of the range-end data), takes the float64
        # path; finite data elsewhere is sliced in float32.
        x = _fp32_patterns(seed)
        x[3] = 0.0  # a zero fibre along either axis
        x[:, 5] = 0.0
        finite = np.where(np.isfinite(x), x, np.float32(0.0))
        ends = _fp32_range_ends(seed)
        cases = [(x, False), (finite, True), (ends, axis == -2)]
        for data, compact in cases:
            got, form = _ozaki_terms(data, n_slices, axis)
            assert (form.slices.dtype == np.float32) is compact
            for term, want in zip(got, _ref_ozaki(data, n_slices, axis)):
                _assert_same_bits(term, want)

    @pytest.mark.parametrize("n_slices", [1, 3, 8])
    def test_ozaki_fp32_range_ends(self, seed, n_slices):
        # Fibre maxima at the compact path's ends: near FLT_MAX (scale
        # 2**-128, a float32 denormal, under which small elements
        # underflow), in [2**-128, 2**-127) (scale 2**127) and all
        # denormal; signed zeros and zero fibres.  One fibre below
        # 2**-128 sends the whole operand to the float64 path.
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0, size=(6, 40)).astype(np.float32)
        x[0] *= np.float32(2.0**126)
        x[0, 0] = np.finfo(np.float32).max
        x[0, 1:6] = [1e-30, -1e-38, 2.0**-149, -(2.0**-140), 3.0]
        x[1] = (x[1] * np.float32(2.0**-129)).astype(np.float32)
        x[1, 0] = np.float32(2.0**-128)
        x[2] = np.float32(2.0**-149) * rng.integers(-(2**20), 2**20, size=40).astype(np.float32)
        x[2, 0] = np.float32(-(2.0**-127))
        x[3] = 0.0
        x[4, ::2] = -0.0
        # The least fibre exponent under which an element underflows to
        # zero: e = 1, where -2**-149 * 2**-1 ties to -0.0.
        tie = np.array([[1.5, -(2.0**-149)], [0.75, 0.5]], dtype=np.float32)
        cases = ((x, True), (np.vstack([x, x[1:2] * 0.25]), False), (tie, True))
        for data, compact in cases:
            got, form = _ozaki_terms(data, n_slices, -1)
            assert (form.slices.dtype == np.float32) is compact
            for term, want in zip(got, _ref_ozaki(data, n_slices, -1)):
                _assert_same_bits(term, want)

    def test_ozaki_fallback_inputs(self, seed):
        # FP64 input takes the float64 path, tiny and huge fibres alike;
        # slice counts outside [1, 8] are refused.
        rng = np.random.default_rng(seed)
        x64 = rng.standard_normal((7, 9)) * 1e-200
        x64[0] *= 1e-110  # fibre maxima near the FP64 denormal floor
        x64[1] = np.ldexp(rng.uniform(0.5, 1.0, 9), 1023)  # e = 1024
        for n_slices in (1, 3, 8):
            got, form = _ozaki_terms(x64, n_slices, -1)
            assert form.slices.dtype == np.float64
            for term, want in zip(got, _ref_ozaki(x64, n_slices, -1)):
                _assert_same_bits(term, want)
        x32 = rng.standard_normal((7, 9)).astype(np.float32)
        for n_slices in (0, 9):
            with pytest.raises(ValueError):
                ozaki_slice_terms(x32, n_slices)

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
