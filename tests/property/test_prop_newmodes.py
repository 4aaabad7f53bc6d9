"""Property tests for the post-paper split modes.

Two contracts per mode:

* **accuracy** — against an FP64 matmul reference, ``OZAKI_INT8`` stays
  inside the analytic per-slice truncation bound and ``EMULATED_FP64``
  delivers FP64-class results from FP32-term products;
* **golden bitwise** — the routed fused/plan-cached paths reproduce the
  kept naive references (``gemm_oracles.ozaki_gemm_reference`` and
  ``gemm_oracles.emulated_fp64_gemm_reference`` in tests/, composed with
  ``gemm_4m`` for complex) bit for bit on the fused engine, on the
  same adversarial inputs the paper-mode golden suite uses.
"""

import numpy as np
import pytest
from gemm_oracles import emulated_fp64_gemm_reference, ozaki_gemm_reference
from hypothesis import given, settings, strategies as st

from repro.blas.complex3m import gemm_4m
from repro.blas.gemm import finite_checks, gemm
from repro.blas.modes import ComputeMode, set_ozaki_slices
from repro.blas.plan import PreparedOperand, prepare, release
from repro.blas.rounding import OZAKI_EXACT_K, OZAKI_SLICE_BITS, ozaki_max_relative_error

pytestmark = pytest.mark.usefixtures("clean_mode_env")

dims = st.integers(min_value=1, max_value=10)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
slice_counts = st.integers(min_value=1, max_value=4)


def _mixed_magnitude(rng, shape, decades=4, dtype=np.float32):
    scale = 10.0 ** rng.integers(-decades, decades + 1, size=shape).astype(np.float64)
    return (rng.standard_normal(shape) * scale).astype(dtype)


@st.composite
def gemm_inputs(draw, dtype=np.float32, decades=4):
    m, k, n = draw(dims), draw(dims), draw(dims)
    rng = np.random.default_rng(draw(seeds))
    if np.dtype(dtype).kind == "c":
        real = np.float32 if np.dtype(dtype) == np.dtype(np.complex64) else np.float64
        a = (_mixed_magnitude(rng, (m, k), decades, real)
             + 1j * _mixed_magnitude(rng, (m, k), decades, real)).astype(dtype)
        b = (_mixed_magnitude(rng, (k, n), decades, real)
             + 1j * _mixed_magnitude(rng, (k, n), decades, real)).astype(dtype)
    else:
        a = _mixed_magnitude(rng, (m, k), decades, dtype)
        b = _mixed_magnitude(rng, (k, n), decades, dtype)
    return a, b


def _assert_bitwise(out, ref):
    assert out.dtype == ref.dtype and out.shape == ref.shape
    view = {
        np.dtype(np.float32): np.uint32,
        np.dtype(np.float64): np.uint64,
        np.dtype(np.complex64): np.uint64,
    }.get(out.dtype)
    if view is None:                      # complex128: compare part-wise
        np.testing.assert_array_equal(out.real.view(np.uint64), ref.real.view(np.uint64))
        np.testing.assert_array_equal(out.imag.view(np.uint64), ref.imag.view(np.uint64))
    else:
        np.testing.assert_array_equal(out.view(view), ref.view(view))


# ----------------------------------------------------------------------
# Accuracy against the FP64 reference.
# ----------------------------------------------------------------------


class TestOzakiAccuracy:
    """OZAKI_INT8 stays inside the analytic slice-truncation bound.

    With per-fibre scales ``rowmax_a``/``colmax_b``, truncating each
    operand after ``s`` 7-bit slices leaves a residual below
    ``2^(1 - 7s)`` of the fibre max; propagating both residuals through
    the k-sum bounds the output error by
    ``k * rowmax_a * colmax_b * 2^(3 - 7s)`` elementwise.
    """

    @given(gemm_inputs(), slice_counts)
    @settings(max_examples=60, deadline=None)
    def test_elementwise_truncation_bound(self, ab, n_slices):
        a, b = ab
        set_ozaki_slices(n_slices)
        try:
            out = gemm(a, b, mode=ComputeMode.OZAKI_INT8).astype(np.float64)
        finally:
            set_ozaki_slices(None)
        ref = a.astype(np.float64) @ b.astype(np.float64)
        k = a.shape[-1]
        rowmax = np.max(np.abs(a.astype(np.float64)), axis=-1, keepdims=True)
        colmax = np.max(np.abs(b.astype(np.float64)), axis=-2, keepdims=True)
        bound = k * rowmax * colmax * 2.0 ** (3 - OZAKI_SLICE_BITS * n_slices)
        # FP32 output rounding adds at most one half-ulp of the result.
        bound = bound + np.abs(ref) * 2.0**-24
        assert (np.abs(out - ref) <= bound + np.finfo(np.float64).tiny).all()

    def test_more_slices_tighter_error(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((48, 64)).astype(np.float32)
        b = rng.standard_normal((64, 40)).astype(np.float32)
        ref = a.astype(np.float64) @ b.astype(np.float64)

        def err(s):
            set_ozaki_slices(s)
            try:
                out = gemm(a, b, mode=ComputeMode.OZAKI_INT8)
            finally:
                set_ozaki_slices(None)
            return float(np.abs(out.astype(np.float64) - ref).max())

        e1, e2, e3 = err(1), err(2), err(3)
        assert e1 > e2 > 0
        assert e2 > e3 or e3 == 0.0
        # And the analytic ladder mirrors that monotonicity.
        assert ozaki_max_relative_error(1) > ozaki_max_relative_error(2) > \
            ozaki_max_relative_error(3)


class TestEmulatedFP64Accuracy:
    """EMULATED_FP64 delivers FP64-class GEMMs from FP32-term products."""

    @given(gemm_inputs(dtype=np.float64, decades=6))
    @settings(max_examples=60, deadline=None)
    def test_dgemm_near_fp64(self, ab):
        a, b = ab
        out = gemm(a, b, mode=ComputeMode.EMULATED_FP64)
        assert out.dtype == np.float64
        ref = a @ b
        # The three FP32 terms carry all 53 significand bits and every
        # pair product is exact in FP64, so the only error left is the
        # FP64 accumulation of ~6k partial products.
        k = a.shape[-1]
        envelope = np.abs(a) @ np.abs(b)
        bound = envelope * (32 * k * 2.0**-53) + np.finfo(np.float64).tiny
        assert (np.abs(out - ref) <= bound).all()

    @given(gemm_inputs(dtype=np.complex128, decades=3))
    @settings(max_examples=30, deadline=None)
    def test_zgemm_near_fp64(self, ab):
        a, b = ab
        out = gemm(a, b, mode=ComputeMode.EMULATED_FP64)
        assert out.dtype == np.complex128
        ref = a @ b
        k = a.shape[-1]
        envelope = np.abs(a) @ np.abs(b)
        bound = envelope * (64 * k * 2.0**-53) + np.finfo(np.float64).tiny
        assert (np.abs(out - ref) <= bound).all()

    @given(gemm_inputs())
    @settings(max_examples=40, deadline=None)
    def test_sgemm_beats_fp32_class(self, ab):
        a, b = ab
        out = gemm(a, b, mode=ComputeMode.EMULATED_FP64)
        assert out.dtype == np.float32
        ref = a.astype(np.float64) @ b.astype(np.float64)
        k = a.shape[-1]
        envelope = np.abs(a.astype(np.float64)) @ np.abs(b.astype(np.float64))
        # FP64 accumulation, then one rounding to FP32 storage.
        bound = envelope * (32 * k * 2.0**-53) + np.abs(ref) * 2.0**-24
        assert (np.abs(out.astype(np.float64) - ref)
                <= bound + np.finfo(np.float64).tiny).all()


# ----------------------------------------------------------------------
# Golden bitwise: routed/fused/cached paths vs the naive references.
# ----------------------------------------------------------------------


def _reference(a, b, mode):
    """The kept naive path for each (dtype, mode) pairing."""
    if mode is ComputeMode.OZAKI_INT8:
        n_slices = ComputeMode.OZAKI_INT8.n_terms
        if np.iscomplexobj(a):
            return gemm_4m(
                a, b, real_gemm=lambda x, y: ozaki_gemm_reference(x, y, n_slices)
            )
        return ozaki_gemm_reference(a, b, n_slices)
    if np.iscomplexobj(a):
        return gemm_4m(a, b, real_gemm=emulated_fp64_gemm_reference)
    return emulated_fp64_gemm_reference(a, b)


class TestGoldenOzaki:
    @given(gemm_inputs(), slice_counts)
    @settings(max_examples=50, deadline=None)
    def test_sgemm_bitwise(self, ab, n_slices):
        a, b = ab
        set_ozaki_slices(n_slices)
        try:
            ref = _reference(a, b, ComputeMode.OZAKI_INT8)
            _assert_bitwise(gemm(a, b, mode=ComputeMode.OZAKI_INT8), ref)
        finally:
            set_ozaki_slices(None)

    @given(gemm_inputs(dtype=np.complex64))
    @settings(max_examples=40, deadline=None)
    def test_cgemm_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.OZAKI_INT8)
        _assert_bitwise(gemm(a, b, mode=ComputeMode.OZAKI_INT8), ref)

    @given(gemm_inputs())
    @settings(max_examples=25, deadline=None)
    def test_prepared_and_cached_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.OZAKI_INT8)
        pa, pb = prepare(a.copy()), prepare(b.copy())
        for _ in range(2):  # the second call is served from the plans' caches
            _assert_bitwise(gemm(pa, pb, mode=ComputeMode.OZAKI_INT8), ref)


def _operand(rng, shape, dtype):
    x = _mixed_magnitude(rng, shape, 3, np.float32)
    if np.dtype(dtype).kind == "c":
        x = (x + 1j * _mixed_magnitude(rng, shape, 3, np.float32)).astype(dtype)
    return x


class TestGoldenOzakiBoundaries:
    """Deterministic OZAKI_INT8 cases where the exact FP32 slice products
    change shape: contractions at and past the ``OZAKI_EXACT_K`` = 1040
    chunk bound, one to eight slices, the pair-block (small) and
    per-part (large) complex paths, ``columns()`` blocks of warmed
    plans, FP32 range ends and non-finite input, each bitwise against
    the float64 oracle."""

    #: (m, n) of a small output, and of a complex output whose
    #: (2, 2, m, n) float64 block exceeds BATCH_PAIRS_MAX_BYTES.
    OUTPUTS = {"small": (5, 7), "large": (96, 90)}

    @staticmethod
    def _op(x, trans):
        x = x.array if hasattr(x, "array") else x
        return {"N": x, "T": x.T, "C": x.conj().T}[trans]

    def _check(self, a, b, n_slices, trans_a="N", trans_b="N"):
        set_ozaki_slices(n_slices)
        try:
            out = gemm(a, b, mode=ComputeMode.OZAKI_INT8, trans_a=trans_a, trans_b=trans_b)
            op_a, op_b = self._op(a, trans_a), self._op(b, trans_b)
            _assert_bitwise(out, _reference(op_a, op_b, ComputeMode.OZAKI_INT8))
        finally:
            set_ozaki_slices(None)

    @pytest.mark.parametrize("trans_b", ["N", "T", "C"])
    @pytest.mark.parametrize("trans_a", ["N", "T", "C"])
    @pytest.mark.parametrize("dtype", [np.float32, np.complex64], ids=["sgemm", "cgemm"])
    def test_transposed_operands(self, dtype, trans_a, trans_b):
        # op(B)^T is sliced for operand b: B itself for 'T', conj(B)
        # for 'C', a transposed pack for 'N'.
        rng = np.random.default_rng(3)
        a = _operand(rng, (1100, 6) if trans_a != "N" else (6, 1100), dtype)
        b = _operand(rng, (5, 1100) if trans_b != "N" else (1100, 5), dtype)
        self._check(a, b, 3, trans_a=trans_a, trans_b=trans_b)
        pa, pb = PreparedOperand(a.copy()), PreparedOperand(b.copy())
        self._check(pa, pb, 3, trans_a=trans_a, trans_b=trans_b)

    @pytest.mark.parametrize("size", sorted(OUTPUTS))
    @pytest.mark.parametrize("dtype", [np.float32, np.complex64], ids=["sgemm", "cgemm"])
    @pytest.mark.parametrize("n_slices", [1, 3, 8])
    @pytest.mark.parametrize("k", [1040, 1041, 1728, 3000])
    def test_contraction_lengths(self, k, n_slices, dtype, size):
        assert OZAKI_EXACT_K == 1040
        m, n = self.OUTPUTS[size]
        rng = np.random.default_rng(k * 10 + n_slices)
        self._check(_operand(rng, (m, k), dtype), _operand(rng, (k, n), dtype), n_slices)

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64], ids=["sgemm", "cgemm"])
    @pytest.mark.parametrize("k", [1040, 1041, 3000])
    def test_largest_slice_products(self, k, dtype):
        # Every element 1 - 2**-21: its first three slices are all 127,
        # so a slice product reaches k * 127**2, which FP32 holds
        # exactly only up to k = 1040 (a longer chunk would round).
        v = np.float32(1.0 - 2.0**-21)
        a, b = np.full((5, k), v, dtype), np.full((k, 7), v, dtype)
        if np.dtype(dtype).kind == "c":
            a, b = a * np.complex64(1 - 1j), b * np.complex64(-1 + 1j)
        for n_slices in (3, 8):
            self._check(a, b, n_slices)

    @pytest.mark.parametrize("n_slices", [1, 3, 8])
    @pytest.mark.parametrize("n_grid", [1041, 3000])
    def test_prepared_column_blocks(self, n_grid, n_slices):
        # remap_occ's products on warmed plans of Psi(0) and Psi(t): the
        # occupied block's 'C' forms and the blocks' 'N' forms slice the
        # parents' stacks (row views of their fibres).
        rng = np.random.default_rng(n_grid + n_slices)
        n_orb, n_occ = 24, 16
        psi0, psi = (_operand(rng, (n_grid, n_orb), np.complex64) for _ in range(2))
        p0, pt = prepare(psi0), PreparedOperand(psi, keep_bases=False)
        set_ozaki_slices(n_slices)
        try:
            for _ in range(2):  # the second pass reads the cached children
                gemm(p0, psi, trans_a="C", mode=ComputeMode.OZAKI_INT8)
                gemm(pt, psi0, trans_a="C", mode=ComputeMode.OZAKI_INT8)
                gemm(psi0, pt, trans_a="C", mode=ComputeMode.OZAKI_INT8)
                occ = pt.columns(0, n_occ)
                self._check(occ, p0.columns(n_occ, n_orb), n_slices, trans_a="C")
                self._check(p0.columns(0, n_occ), occ, n_slices, trans_a="C")
        finally:
            set_ozaki_slices(None)
            release(psi0)

    @staticmethod
    def _range_ends(rng, shape):
        x = rng.uniform(-2.0, 2.0, size=shape).astype(np.float32)
        x[0] *= np.float32(2.0**126)          # fibre maxima near 2**127
        x[0, 0] = np.finfo(np.float32).max
        x[1] = np.float32(2.0**-149) * rng.integers(-(2**20), 2**20, size=shape[1])
        x[1, 0] = np.float32(1.5 * 2.0**-128)  # all denormal, scale 2**127
        x[2] = 0.0                            # a zero fibre
        x[3, ::2] = -0.0                      # signed zeros
        x[3, 1::4] = 0.0
        return x

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("n_slices", [1, 3, 8])
    @pytest.mark.parametrize("k", [40, 1041])
    def test_fp32_range_ends(self, k, n_slices):
        # Products of the ~2**127 fibres overflow FP32 on both paths.
        rng = np.random.default_rng(k + n_slices)
        a = self._range_ends(rng, (6, k))
        b = np.ascontiguousarray(self._range_ends(rng, (5, k)).T)
        self._check(a, b, n_slices)
        # A fibre below 2**-128 makes its operand slice in float64.
        a[4] = np.float32(2.0**-149) * rng.integers(-8, 8, size=k)
        self._check(a, b, n_slices)
        ca = (a + 1j * a[::-1]).astype(np.complex64)
        cb = (b[:, ::-1] + 1j * b).astype(np.complex64)
        self._check(ca, cb, n_slices)

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64], ids=["sgemm", "cgemm"])
    def test_non_finite_input(self, dtype):
        # The operand holding Inf/NaN slices in float64, so its slice
        # products with the finite operand's run as FP64 GEMMs.
        rng = np.random.default_rng(11)
        a, b = _operand(rng, (7, 1100), dtype), _operand(rng, (1100, 6), dtype)
        a[2, 5] = np.inf
        a[4, 7] = np.nan
        with finite_checks(False), np.errstate(invalid="ignore"):
            self._check(a, b, 3)
            self._check(b.T.copy(), a.T.copy(), 3)


class TestGoldenEmulatedFP64:
    @given(gemm_inputs())
    @settings(max_examples=40, deadline=None)
    def test_sgemm_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.EMULATED_FP64)
        _assert_bitwise(gemm(a, b, mode=ComputeMode.EMULATED_FP64), ref)

    @given(gemm_inputs(dtype=np.float64))
    @settings(max_examples=40, deadline=None)
    def test_dgemm_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.EMULATED_FP64)
        _assert_bitwise(gemm(a, b, mode=ComputeMode.EMULATED_FP64), ref)

    @given(gemm_inputs(dtype=np.complex64))
    @settings(max_examples=30, deadline=None)
    def test_cgemm_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.EMULATED_FP64)
        _assert_bitwise(gemm(a, b, mode=ComputeMode.EMULATED_FP64), ref)

    @given(gemm_inputs(dtype=np.complex128))
    @settings(max_examples=30, deadline=None)
    def test_zgemm_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.EMULATED_FP64)
        _assert_bitwise(gemm(a, b, mode=ComputeMode.EMULATED_FP64), ref)

    @given(gemm_inputs(dtype=np.float64))
    @settings(max_examples=25, deadline=None)
    def test_prepared_and_cached_bitwise(self, ab):
        a, b = ab
        ref = _reference(a, b, ComputeMode.EMULATED_FP64)
        pa, pb = prepare(a.copy()), prepare(b.copy())
        for _ in range(2):  # the second call is served from the plans' caches
            _assert_bitwise(gemm(pa, pb, mode=ComputeMode.EMULATED_FP64), ref)


class TestOzakiFp64Passthrough:
    """OZAKI_INT8 is single-only: double routines fall back to STANDARD."""

    @given(gemm_inputs(dtype=np.float64))
    @settings(max_examples=20, deadline=None)
    def test_dgemm_is_standard(self, ab):
        a, b = ab
        _assert_bitwise(
            gemm(a, b, mode=ComputeMode.OZAKI_INT8),
            gemm(a, b, mode=ComputeMode.STANDARD),
        )
