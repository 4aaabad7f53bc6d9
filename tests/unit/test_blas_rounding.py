"""Unit tests: bit-exact FP32 -> BF16/TF32 rounding and splitting."""

import numpy as np
import pytest

from repro.blas.rounding import (
    OZAKI_SLICE_BITS,
    OzakiSlices,
    emulated_fp64_split_terms,
    max_relative_error,
    ozaki_max_relative_error,
    ozaki_slice_terms,
    round_fp32_to_bf16,
    round_fp32_to_tf32,
    round_mantissa,
    round_to_precision,
    split_bf16,
    split_terms,
    split_tf32,
)
from repro.types import Precision


class TestRoundMantissa:
    def test_bf16_drops_low_16_bits(self):
        x = np.array([1.0 + 2**-20], dtype=np.float32)
        out = round_fp32_to_bf16(x)
        bits = out.view(np.uint32)
        assert bits[0] & 0xFFFF == 0

    def test_tf32_drops_low_13_bits(self):
        x = np.array([1.0 + 2**-20], dtype=np.float32)
        out = round_fp32_to_tf32(x)
        bits = out.view(np.uint32)
        assert bits[0] & 0x1FFF == 0

    def test_exact_values_unchanged(self):
        # Values already on the BF16 grid survive untouched.
        exact = np.array([1.0, 0.5, -2.0, 1.5, 0.0, 240.0], dtype=np.float32)
        np.testing.assert_array_equal(round_fp32_to_bf16(exact), exact)

    def test_round_to_nearest_even_ties(self):
        # 1 + 2^-8 is exactly between BF16 neighbours 1.0 and 1+2^-7;
        # RNE picks the even mantissa (1.0).
        x = np.array([1.0 + 2**-8], dtype=np.float32)
        assert round_fp32_to_bf16(x)[0] == np.float32(1.0)
        # 1 + 3*2^-8 is between 1+2^-7 and 1+2^-6; even is 1+2^-6.
        y = np.array([1.0 + 3 * 2**-8], dtype=np.float32)
        assert round_fp32_to_bf16(y)[0] == np.float32(1.0 + 2**-6)

    def test_rounding_error_bound_bf16(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1e6, 1e6, 10_000).astype(np.float32)
        x = x[x != 0]
        rel = np.abs((round_fp32_to_bf16(x) - x) / x)
        assert rel.max() <= max_relative_error(7)

    def test_rounding_error_bound_tf32(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1e6, 1e6, 10_000).astype(np.float32)
        x = x[x != 0]
        rel = np.abs((round_fp32_to_tf32(x) - x) / x)
        assert rel.max() <= max_relative_error(10)

    def test_mantissa_overflow_carries_to_exponent(self):
        # Just below 2.0: rounds up to exactly 2.0 (exponent bump).
        x = np.array([2.0 - 2**-9], dtype=np.float32)
        assert round_fp32_to_bf16(x)[0] == np.float32(2.0)

    def test_inf_and_nan_pass_through(self):
        x = np.array([np.inf, -np.inf, np.nan], dtype=np.float32)
        out = round_fp32_to_bf16(x)
        assert np.isinf(out[0]) and out[0] > 0
        assert np.isinf(out[1]) and out[1] < 0
        assert np.isnan(out[2])

    def test_nan_payload_preserved(self):
        # Low-payload NaNs would round to Inf (or wrap past 0xFFFFFFFF)
        # without the restore; finite neighbours are still rounded.
        bits = np.array(
            [0x7FC00000, 0x7F800001, 0xFFFFFFFF, 0xFF800001, 0x3FC00001],
            dtype=np.uint32,
        )
        x = bits.view(np.float32)
        for keep in (7, 10):
            out = round_mantissa(x, keep)
            np.testing.assert_array_equal(out.view(np.uint32)[:4], bits[:4])
            assert out[4] == np.float32(1.5)

    def test_negative_values_symmetric(self):
        x = np.array([1 / 3, 3.14159], dtype=np.float32)
        np.testing.assert_array_equal(round_fp32_to_bf16(-x), -round_fp32_to_bf16(x))

    def test_denormals_do_not_crash(self):
        x = np.array([1e-40, -1e-40, 1e-45], dtype=np.float32)
        out = round_fp32_to_bf16(x)
        assert np.all(np.isfinite(out))

    def test_keep_23_is_identity(self):
        x = np.array([1 / 3, 2.7, -9.1], dtype=np.float32)
        np.testing.assert_array_equal(round_mantissa(x, 23), x)

    def test_keep_bits_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="keep_bits"):
            round_mantissa(np.zeros(1, np.float32), 24)
        with pytest.raises(ValueError, match="keep_bits"):
            round_mantissa(np.zeros(1, np.float32), -1)

    def test_preserves_shape_and_dtype(self):
        x = np.ones((3, 4, 5), dtype=np.float32) / 3
        out = round_fp32_to_bf16(x)
        assert out.shape == (3, 4, 5)
        assert out.dtype == np.float32

    def test_float64_input_is_cast_first(self):
        x = np.array([1 / 3], dtype=np.float64)
        out = round_fp32_to_bf16(x)
        assert out.dtype == np.float32


class TestMantissaOverflowBitPatterns:
    """Regression: the uint32-normalized RNE arithmetic must carry a
    mantissa-all-ones pattern into the exponent (IEEE round-up), with
    no NumPy casting/overflow warnings under NEP 50."""

    def _round_bits(self, pattern: int, keep_bits: int) -> int:
        import warnings

        x = np.array([pattern], dtype=np.uint32).view(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = round_mantissa(x, keep_bits)
        return int(out.view(np.uint32)[0])

    def test_all_ones_mantissa_carries_into_exponent(self):
        # 0x3FFFFFFF = 2 - 2^-23 (mantissa all ones, just below 2.0);
        # BF16 RNE rounds up across the binade boundary to exactly 2.0.
        assert self._round_bits(0x3FFFFFFF, 7) == 0x40000000
        assert self._round_bits(0x3FFFFFFF, 10) == 0x40000000

    def test_negative_mirror(self):
        assert self._round_bits(0xBFFFFFFF, 7) == 0xC0000000

    def test_flt_max_rounds_to_infinity(self):
        # FLT_MAX (0x7F7FFFFF) is above the largest BF16 value; the
        # carry propagates through the whole exponent field, yielding
        # +Inf (0x7F800000) — IEEE RNE overflow, not a wrapped uint32.
        assert self._round_bits(0x7F7FFFFF, 7) == 0x7F800000
        assert self._round_bits(0xFF7FFFFF, 7) == 0xFF800000

    def test_largest_denormal_boundary(self):
        # 0x007FFFFF = largest FP32 denormal; rounding up lands exactly
        # on the smallest normal (0x00800000) via the same carry.
        assert self._round_bits(0x007FFFFF, 7) == 0x00800000


class TestRoundToPrecision:
    def test_fp32_passthrough(self):
        x = np.array([1 / 3], dtype=np.float32)
        np.testing.assert_array_equal(round_to_precision(x, Precision.FP32), x)

    def test_fp16_narrows_exponent(self):
        x = np.array([1e10], dtype=np.float32)  # overflows FP16
        out = round_to_precision(x, Precision.FP16)
        assert np.isinf(out[0])

    def test_bf16_matches_direct(self):
        x = np.array([1 / 3], dtype=np.float32)
        np.testing.assert_array_equal(
            round_to_precision(x, Precision.BF16), round_fp32_to_bf16(x)
        )

    def test_int8_rejected(self):
        with pytest.raises(ValueError):
            round_to_precision(np.zeros(1, np.float32), Precision.INT8)


class TestSplitTerms:
    def test_three_term_bf16_reconstruction_is_exact_for_most_values(self):
        # 7 bits * 3 terms = 21+ bits: all but a residual sliver of the
        # 24-bit significand is captured; reconstruction error is tiny.
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5000).astype(np.float32)
        t1, t2, t3 = split_bf16(x, 3)
        err = np.abs((t1 + t2 + t3) - x)
        assert err.max() <= 2**-22 * np.abs(x).max()

    def test_term_magnitudes_decay(self):
        x = np.array([1 / 3], dtype=np.float32)
        t1, t2, t3 = split_bf16(x, 3)
        assert abs(t1[0]) > abs(t2[0]) > abs(t3[0])

    def test_single_term_equals_rounding(self):
        x = np.array([1 / 3, 2.5, -7.7], dtype=np.float32)
        (t1,) = split_bf16(x, 1)
        np.testing.assert_array_equal(t1, round_fp32_to_bf16(x))

    def test_two_term_residual_bound(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.5, 2.0, 1000).astype(np.float32)
        t1, t2 = split_bf16(x, 2)
        rel = np.abs((t1 + t2) - x) / np.abs(x)
        # Each term removes ~8 bits: two terms leave < 2^-15 relative.
        assert rel.max() <= 2**-15

    def test_tf32_split_single(self):
        x = np.array([1 / 3], dtype=np.float32)
        (t,) = split_tf32(x)
        np.testing.assert_array_equal(t, round_fp32_to_tf32(x))

    def test_zero_terms_rejected(self):
        with pytest.raises(ValueError, match="n_terms"):
            split_terms(np.zeros(1, np.float32), 7, 0)

    def test_exact_bf16_values_split_trivially(self):
        x = np.array([1.5, -0.25], dtype=np.float32)
        t1, t2 = split_bf16(x, 2)
        np.testing.assert_array_equal(t1, x)
        np.testing.assert_array_equal(t2, np.zeros_like(x))


class TestErrorBound:
    def test_bound_values(self):
        assert max_relative_error(7) == 2**-8
        assert max_relative_error(10) == 2**-11


class TestOzakiSliceTerms:
    """The INT8 slice split behind ``OZAKI_INT8``.

    The kernel slices each row (fibre) of its input; its float32 slices
    times ``2**e`` are the float64 slice terms these properties are
    stated for.
    """

    def _random(self, shape=(12, 9), seed=0):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-3, 4, size=shape).astype(np.float64)
        return (rng.standard_normal(shape) * scale).astype(np.float32)

    @staticmethod
    def _terms(x, n_slices):
        form = ozaki_slice_terms(x, n_slices)
        assert isinstance(form, OzakiSlices)
        assert form.slices.dtype == np.float32  # finite FP32: sliced in float32
        return form.terms()

    def test_slices_are_scaled_integers_in_int8_range(self):
        x = self._random()
        slices, e = ozaki_slice_terms(x, 3)
        for i, term in enumerate(self._terms(x, 3)):
            absmax = np.max(np.abs(x.astype(np.float64)), axis=-1, keepdims=True)
            _, want_e = np.frexp(absmax)
            np.testing.assert_array_equal(e, want_e)
            q = np.ldexp(term, -(want_e - OZAKI_SLICE_BITS * (i + 1)))
            assert np.array_equal(q, np.trunc(q))        # integer-valued
            assert np.abs(q).max() <= 127                # INT8-representable
            # The float32 slice is that integer at its level.
            np.testing.assert_array_equal(slices[i], np.ldexp(q, -OZAKI_SLICE_BITS * (i + 1)))

    def test_reconstruction_within_truncation_bound(self):
        x = self._random()
        for n_slices in (1, 2, 3, 4):
            recon = sum(self._terms(x, n_slices))
            fibre_max = np.max(np.abs(x.astype(np.float64)), axis=-1, keepdims=True)
            bound = np.ldexp(fibre_max, 1 - OZAKI_SLICE_BITS * n_slices)
            assert (np.abs(x.astype(np.float64) - recon) <= bound).all()

    def test_zero_fibres_survive(self):
        x = np.zeros((4, 5), dtype=np.float32)
        x[0, :] = 1.0
        for term in self._terms(x, 3):
            assert np.isfinite(term).all()
        recon = sum(self._terms(x, 3))
        np.testing.assert_array_equal(recon[1:], 0.0)

    def test_axis_selects_the_contraction_fibre(self):
        # Slicing x's rows and slicing its columns (the rows of x.T)
        # scale by different fibres.
        x = self._random((6, 8))
        rows = self._terms(x, 2)
        cols = np.swapaxes(self._terms(np.ascontiguousarray(x.T), 2), -1, -2)
        assert not np.array_equal(rows[0], cols[0])

    def test_requires_two_dims(self):
        with pytest.raises(ValueError):
            ozaki_slice_terms(np.ones(4, np.float32), 2)

    def test_error_bound_values(self):
        assert ozaki_max_relative_error(1) == 2**-6
        assert ozaki_max_relative_error(3) == 2**-20


class TestEmulatedFP64SplitTerms:
    """The FP32-granularity split behind ``EMULATED_FP64``."""

    def test_three_terms_reconstruct_fp64_exactly(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((64,)) * 10.0 ** rng.integers(-6, 7, size=64)
        terms = emulated_fp64_split_terms(x, 3)
        assert np.array_equal(sum(terms), x)

    def test_terms_are_fp32_representable(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((32,))
        for t in emulated_fp64_split_terms(x, 3):
            assert np.array_equal(t, t.astype(np.float32).astype(np.float64))

    def test_one_term_is_fp32_rounding(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((32,))
        (t,) = emulated_fp64_split_terms(x, 1)
        np.testing.assert_array_equal(t, x.astype(np.float32).astype(np.float64))

    def test_term_magnitudes_decay(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((128,)) + 1.0
        t1, t2, t3 = emulated_fp64_split_terms(x, 3)
        assert np.abs(t2).max() < np.abs(t1).max() * 2**-20
        assert np.abs(t3).max() < np.abs(t2).max() * 2**-10
