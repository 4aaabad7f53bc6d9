"""Cross-backend oracle suite: every backend vs the NumPy reference.

The backend seam's correctness contract (docs/BACKENDS.md) has two
tiers, and this suite asserts both — nothing here is "skip when it
doesn't hold":

* **Bitwise tier** — backends whose capabilities claim
  ``bitwise_numpy`` must match the NumPy backend bit for bit on every
  mode.  The wrapped-NumPy shadow backend proves the dispatch plumbing
  itself (conversion hooks, native mirrors, workspace routing) is
  bitwise invisible on every host, torch or not.  For torch-CPU the
  *split emulation's rounding* is also bitwise — splitting happens in
  NumPy before dispatch — so the reduced-precision component stacks
  are identical; only accumulation order may differ.
* **Tolerance tier** — backends with ``ieee_fp32_accumulation`` (torch
  CPU, and CUDA with TF32 off) may reassociate the FP32 accumulation,
  which bounds the divergence at a few ULPs of the accumulated sum.
  The contracts below are *asserted*, with the documented bounds.

Torch-specific tests use ``importorskip``: absence of torch skips the
torch rows only, never the shadow-backend rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas.backend import (
    NUMPY_BACKEND,
    BackendCapabilities,
    NumpyBackend,
    use_backend,
)
from repro.blas.gemm import gemm
from repro.blas.modes import ComputeMode, compute_mode

pytestmark = pytest.mark.usefixtures("clean_mode_env")

SWEEP_MODES = [
    ComputeMode.STANDARD,
    ComputeMode.FLOAT_TO_BF16,
    ComputeMode.FLOAT_TO_BF16X2,
    ComputeMode.FLOAT_TO_BF16X3,
    ComputeMode.FLOAT_TO_TF32,
]
COMPLEX_MODES = [
    ComputeMode.STANDARD,
    ComputeMode.FLOAT_TO_BF16X2,
    ComputeMode.COMPLEX_3M,
]

#: Documented accumulation-order tolerance for ``ieee_fp32_accumulation``
#: backends (docs/BACKENDS.md): the multiply stage is exact for split
#: modes, so only FP32 sum reassociation over k terms differs.
IEEE_RTOL = 1e-6
IEEE_ATOL = 1e-7

dims = st.integers(min_value=1, max_value=12)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class ShadowBackend(NumpyBackend):
    """Wrapped-NumPy backend with ``native_is_numpy=False`` — exercises
    the whole conversion/mirror path with NumPy arithmetic underneath,
    so its ``bitwise_numpy`` claim must hold on any host."""

    name = "shadow-oracle"
    capabilities = BackendCapabilities(
        ieee_fp32_accumulation=True,
        bitwise_numpy=True,
        device="cpu",
        native_is_numpy=False,
    )

    def to_native(self, x):
        return np.ascontiguousarray(x).copy()


def _real_inputs(seed, m, k, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(np.float32)
    b = rng.standard_normal((k, n)).astype(np.float32)
    a *= np.exp2(rng.integers(-20, 21, size=a.shape)).astype(np.float32)
    b *= np.exp2(rng.integers(-20, 21, size=b.shape)).astype(np.float32)
    return a, b


def _complex_inputs(seed, m, k, n):
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))).astype(
        np.complex64
    )
    b = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))).astype(
        np.complex64
    )
    return a, b


def _torch_cpu():
    pytest.importorskip("torch")
    from repro.blas.backend import get_backend

    return get_backend("torch-cpu")


# ----------------------------------------------------------------------
# Bitwise tier.
# ----------------------------------------------------------------------


class TestBitwiseClaim:
    """Backends claiming ``bitwise_numpy`` must be bit-identical."""

    @pytest.mark.parametrize("mode", SWEEP_MODES, ids=lambda m: m.name)
    @given(seed=seeds, m=dims, k=dims, n=dims)
    @settings(max_examples=25, deadline=None)
    def test_shadow_real_gemm_bitwise(self, mode, seed, m, k, n):
        a, b = _real_inputs(seed, m, k, n)
        with compute_mode(mode):
            ref = gemm(a, b)
            with use_backend(ShadowBackend()):
                got = gemm(a, b)
        assert np.array_equal(got, ref, equal_nan=True)

    @pytest.mark.parametrize("mode", COMPLEX_MODES, ids=lambda m: m.name)
    @given(seed=seeds, m=dims, k=dims, n=dims)
    @settings(max_examples=15, deadline=None)
    def test_shadow_complex_gemm_bitwise(self, mode, seed, m, k, n):
        a, b = _complex_inputs(seed, m, k, n)
        with compute_mode(mode):
            ref = gemm(a, b)
            with use_backend(ShadowBackend()):
                got = gemm(a, b)
        assert np.array_equal(got, ref, equal_nan=True)


# ----------------------------------------------------------------------
# Tolerance tier (torch).
# ----------------------------------------------------------------------


class TestTorchCpuContracts:
    """torch-CPU: IEEE FP32 accumulation, tolerance-tier contracts.

    These are skipped only for *absence of torch* — on any host where
    torch imports, the assertions run and must pass.
    """

    def test_capability_claims(self):
        be = _torch_cpu()
        caps = be.capabilities
        assert caps.ieee_fp32_accumulation  # allow_tf32 is off by default
        assert not caps.bitwise_numpy  # never promise what BLAS order can break
        assert caps.device == "cpu"
        assert not caps.native_is_numpy
        assert be.cache_key == "torch-cpu"

    @pytest.mark.parametrize("mode", SWEEP_MODES, ids=lambda m: m.name)
    @given(seed=seeds, m=dims, k=dims, n=dims)
    @settings(max_examples=15, deadline=None)
    def test_real_gemm_tolerance(self, mode, seed, m, k, n):
        be = _torch_cpu()
        a, b = _real_inputs(seed, m, k, n)
        with compute_mode(mode):
            ref = gemm(a, b)
            with use_backend(be):
                got = gemm(a, b)
        assert got.dtype == ref.dtype
        np.testing.assert_allclose(got, ref, rtol=IEEE_RTOL, atol=IEEE_ATOL * np.abs(ref).max())

    @pytest.mark.parametrize("mode", COMPLEX_MODES, ids=lambda m: m.name)
    @given(seed=seeds, m=dims, k=dims, n=dims)
    @settings(max_examples=10, deadline=None)
    def test_complex_gemm_tolerance(self, mode, seed, m, k, n):
        be = _torch_cpu()
        a, b = _complex_inputs(seed, m, k, n)
        with compute_mode(mode):
            ref = gemm(a, b)
            with use_backend(be):
                got = gemm(a, b)
        np.testing.assert_allclose(
            got, ref, rtol=IEEE_RTOL, atol=IEEE_ATOL * np.abs(ref).max()
        )

    @given(seed=seeds, m=dims, k=dims, n=dims)
    @settings(max_examples=10, deadline=None)
    def test_split_rounding_is_bitwise_even_on_torch(self, seed, m, k, n):
        """k=1 GEMMs have a single product per output element — no
        accumulation freedom — so even torch must match bitwise.  This
        pins that divergence can only come from sum order, i.e. the
        rounding/splitting policy really is backend-independent."""
        be = _torch_cpu()
        a, b = _real_inputs(seed, m, 1, n)
        for mode in SWEEP_MODES:
            with compute_mode(mode):
                ref = gemm(a, b)
                with use_backend(be):
                    got = gemm(a, b)
            assert np.array_equal(got, ref), mode
