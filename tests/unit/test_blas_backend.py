"""Unit tests for the pluggable array-backend layer.

Covers the three contracts docs/BACKENDS.md makes:

* the NumPy backend's operations are the literal pre-backend calls
  (bitwise identity on every op);
* selection — registry, env degradation, strict explicit selection,
  scoped restore — behaves as documented, including when torch is
  absent;
* caches that hold backend-owned buffers (the workspace pool, the plan
  layer's native mirrors) key by ``cache_key`` and never alias across
  backends.

A wrapped-NumPy "shadow" backend (``native_is_numpy=False`` but
NumPy arrays underneath) exercises the full conversion/mirroring path
end to end, bitwise, without needing torch installed.
"""

import importlib.util
import threading
import warnings

import numpy as np
import pytest

from repro import context
from repro.blas import backend as backend_mod
from repro.blas.backend import (
    ArrayBackend,
    BackendCapabilities,
    BackendUnavailable,
    NUMPY_BACKEND,
    NumpyBackend,
    REPRO_BACKEND_ENV,
    active_backend,
    available_backends,
    get_backend,
    refresh_from_env,
    set_backend,
    use_backend,
)
from repro.blas.gemm import gemm
from repro.blas.modes import ComputeMode, compute_mode
from repro.blas.plan import operand_handle, prepare, release
from repro.blas.verbose import format_verbose_line, mkl_verbose
from repro.blas.workspace import Workspace, clear_workspace

HAVE_TORCH = importlib.util.find_spec("torch") is not None

rng = np.random.default_rng(20240807)


class ShadowBackend(NumpyBackend):
    """NumPy underneath, but *claims* a foreign native type.

    ``native_is_numpy=False`` forces every conversion hook and native
    mirror through the full offload path while keeping the arithmetic
    the literal NumPy calls — so end-to-end results must stay bitwise
    identical to the reference backend.  ``to_native`` copies, proving
    callers never rely on aliasing.
    """

    name = "shadow"
    capabilities = BackendCapabilities(
        ieee_fp32_accumulation=True,
        bitwise_numpy=True,
        device="cpu",
        native_is_numpy=False,
    )

    def __init__(self, name="shadow"):
        self.name = name
        self.to_native_calls = 0

    def to_native(self, x):
        self.to_native_calls += 1
        return np.ascontiguousarray(x).copy()


@pytest.fixture(autouse=True)
def _numpy_backend_between_tests():
    prev_default = backend_mod._default
    prev_override = context.update(backend=None).backend
    backend_mod._default = NUMPY_BACKEND
    clear_workspace()
    yield
    backend_mod._default = prev_default
    context.update(backend=prev_override)
    clear_workspace()


class TestNumpyBackendOps:
    def test_matmul_bitwise(self):
        a = rng.standard_normal((7, 5)).astype(np.float32)
        b = rng.standard_normal((5, 9)).astype(np.float32)
        assert np.array_equal(NUMPY_BACKEND.matmul(a, b), np.matmul(a, b))

    def test_matmul_out(self):
        a = rng.standard_normal((4, 4)).astype(np.float32)
        b = rng.standard_normal((4, 4)).astype(np.float32)
        out = np.empty((4, 4), dtype=np.float32)
        got = NUMPY_BACKEND.matmul(a, b, out=out)
        assert got is out
        assert np.array_equal(out, np.matmul(a, b))

    def test_take_add_copy_reduce(self):
        x = rng.standard_normal((6, 3, 3)).astype(np.float32)
        idx = np.array([4, 0, 2])
        out = np.empty((3, 3, 3), dtype=np.float32)
        assert np.array_equal(NUMPY_BACKEND.take(x, idx, out), x[idx])
        acc = x[0].copy()
        NUMPY_BACKEND.add_(acc, x[1])
        assert np.array_equal(acc, x[0] + x[1])
        cp = NUMPY_BACKEND.copy(x)
        assert cp is not x and np.array_equal(cp, x)
        assert NUMPY_BACKEND.reduce(x) == np.sum(x)

    def test_empty_cast_nbytes_result_dtype(self):
        buf = NUMPY_BACKEND.empty((2, 3), np.float32)
        assert buf.shape == (2, 3) and buf.dtype == np.float32
        x = np.ones(4, dtype=np.float32)
        assert NUMPY_BACKEND.cast(x, np.float32) is x  # no copy when right
        assert NUMPY_BACKEND.cast(x, np.float64).dtype == np.float64
        assert NUMPY_BACKEND.nbytes(x) == x.nbytes
        y = np.ones(4, dtype=np.complex64)
        assert NUMPY_BACKEND.result_dtype(x, y) == np.complex64

    def test_conversions_are_identity(self):
        x = np.ones((2, 2), dtype=np.float32)
        assert NUMPY_BACKEND.to_native(x) is x
        assert NUMPY_BACKEND.to_numpy(x) is x

    def test_capabilities(self):
        caps = NUMPY_BACKEND.capabilities
        assert caps.ieee_fp32_accumulation
        assert caps.bitwise_numpy
        assert caps.native_is_numpy
        assert caps.device == "cpu"
        assert NUMPY_BACKEND.cache_key == "numpy"


class TestSelection:
    def test_default_is_numpy(self):
        assert active_backend() is NUMPY_BACKEND

    def test_get_backend_singleton_and_passthrough(self):
        assert get_backend("numpy") is NUMPY_BACKEND
        assert get_backend(" NumPy ") is NUMPY_BACKEND  # normalised
        assert get_backend(None) is active_backend()
        sh = ShadowBackend()
        assert get_backend(sh) is sh

    def test_unknown_name_raises_valueerror(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_backend("cupy")

    def test_set_backend_returns_instance(self):
        sh = ShadowBackend()
        assert set_backend(sh) is sh
        assert active_backend() is sh

    def test_use_backend_restores_on_exit_and_error(self):
        sh = ShadowBackend()
        with use_backend(sh) as be:
            assert be is sh and active_backend() is sh
        assert active_backend() is NUMPY_BACKEND
        with pytest.raises(RuntimeError, match="boom"):
            with use_backend(sh):
                raise RuntimeError("boom")
        assert active_backend() is NUMPY_BACKEND

    def test_available_backends_reports_numpy_ok(self):
        probe = available_backends()
        assert probe["numpy"] == "ok"
        assert {"torch", "torch-cpu", "torch-cuda"} <= set(probe)

    @pytest.mark.skipif(HAVE_TORCH, reason="torch is installed here")
    def test_torch_missing_raises_backend_unavailable(self):
        with pytest.raises(BackendUnavailable, match="torch is not installed"):
            get_backend("torch")
        # ...and the probe reports the reason instead of raising.
        assert "torch is not installed" in available_backends()["torch"]


class TestEnvSelection:
    def test_empty_env_selects_numpy(self, monkeypatch):
        monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
        assert refresh_from_env() is NUMPY_BACKEND

    @pytest.mark.skipif(HAVE_TORCH, reason="torch is installed here")
    def test_unavailable_env_degrades_with_warning(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "torch")
        with pytest.warns(RuntimeWarning, match="falling back to the numpy backend"):
            got = refresh_from_env()
        assert got is NUMPY_BACKEND

    def test_unknown_env_degrades_with_warning(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "no-such-backend")
        with pytest.warns(RuntimeWarning, match="falling back to the numpy backend"):
            assert refresh_from_env() is NUMPY_BACKEND

    def test_explicit_selection_is_strict(self, monkeypatch):
        # Unlike the env path, set_backend must raise, never degrade.
        with pytest.raises(ValueError):
            set_backend("no-such-backend")
        assert active_backend() is NUMPY_BACKEND


class TestWorkspaceBackendKeying:
    def test_distinct_backends_get_distinct_buffers(self):
        ws = Workspace()
        sh = ShadowBackend()
        a = ws.get("prod", (8, 8), np.float32, NUMPY_BACKEND)
        b = ws.get("prod", (8, 8), np.float32, sh)
        assert a is not b
        # Same backend, same key -> same buffer (the reuse contract).
        assert ws.get("prod", (8, 8), np.float32, NUMPY_BACKEND) is a
        assert ws.get("prod", (8, 8), np.float32, sh) is b

    def test_default_backend_is_numpy(self):
        ws = Workspace()
        assert ws.get("t", (2,), np.float32) is ws.get(
            "t", (2,), np.float32, NUMPY_BACKEND
        )


class TestPlanNativeMirrors:
    def test_numpy_backend_short_circuits(self):
        a = rng.standard_normal((6, 6)).astype(np.float32)
        h = operand_handle(a, "N", np.float32)
        assert h.contiguous_native(NUMPY_BACKEND) is h.contiguous()

    def test_shadow_mirror_cached_per_backend(self):
        a = rng.standard_normal((6, 6)).astype(np.float32)
        op = prepare(a)
        try:
            h = operand_handle(op, "N", np.float32)
            sh = ShadowBackend()
            m1 = h.split_stack_native(sh, 8, 3)
            m2 = h.split_stack_native(sh, 8, 3)
            assert m1 is m2  # staged once per plan per backend
            assert sh.to_native_calls == 1
            assert np.array_equal(m1, h.split_stack(8, 3))
            # Mirrors key by cache_key (the isolation boundary): a second
            # instance with the same key shares the staged copy, while a
            # differently-keyed backend never aliases it.
            assert h.split_stack_native(ShadowBackend(), 8, 3) is m1
            assert h.split_stack_native(ShadowBackend("shadow2"), 8, 3) is not m1
        finally:
            release(op)


class TestShadowBackendEndToEnd:
    """The full dispatch path, bitwise, with no torch required."""

    MODES = [
        ComputeMode.STANDARD,
        ComputeMode.FLOAT_TO_BF16,
        ComputeMode.FLOAT_TO_BF16X2,
        ComputeMode.FLOAT_TO_BF16X3,
        ComputeMode.FLOAT_TO_TF32,
        ComputeMode.OZAKI_INT8,
    ]

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
    def test_real_gemm_bitwise_vs_numpy(self, mode):
        a = rng.standard_normal((13, 7)).astype(np.float32)
        b = rng.standard_normal((7, 11)).astype(np.float32)
        with compute_mode(mode):
            ref = gemm(a, b)
            with use_backend(ShadowBackend()):
                got = gemm(a, b)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize(
        "mode",
        [
            ComputeMode.STANDARD,
            ComputeMode.COMPLEX_3M,
            ComputeMode.FLOAT_TO_BF16X2,
            ComputeMode.OZAKI_INT8,
        ],
    )
    def test_complex_gemm_bitwise_vs_numpy(self, mode):
        a = (
            rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
        ).astype(np.complex64)
        b = (
            rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
        ).astype(np.complex64)
        with compute_mode(mode):
            ref = gemm(a, b)
            with use_backend(ShadowBackend()):
                got = gemm(a, b)
        assert np.array_equal(got, ref)

    def test_verbose_record_carries_backend(self):
        a = rng.standard_normal((4, 4)).astype(np.float32)
        with mkl_verbose() as log:
            gemm(a, a)
            with use_backend(ShadowBackend()):
                gemm(a, a)
        assert [rec.backend for rec in log] == ["numpy", "shadow"]
        # The MKL look-alike line stays bit-for-bit for numpy...
        assert "backend:" not in format_verbose_line(log[0])
        # ...and names any other executor.
        assert "backend:shadow" in format_verbose_line(log[1])


class TestThreadScoping:
    """use_backend is per-thread; set_backend is the process default."""

    def test_use_backend_does_not_leak_into_other_threads(self):
        seen = {}
        with use_backend(ShadowBackend()):
            t = threading.Thread(
                target=lambda: seen.setdefault("worker", active_backend())
            )
            t.start()
            t.join()
        assert seen["worker"] is NUMPY_BACKEND

    def test_set_backend_is_visible_to_other_threads(self):
        sh = ShadowBackend()
        set_backend(sh)
        seen = {}
        t = threading.Thread(target=lambda: seen.setdefault("worker", active_backend()))
        t.start()
        t.join()
        assert seen["worker"] is sh

    def test_concurrent_scopes_restore_independently(self):
        # Two threads hold different scoped backends across a barrier;
        # each must see its own selection and restore to the default —
        # the interleaved-restore hazard of a process-global scope.
        b1, b2 = ShadowBackend("scoped1"), ShadowBackend("scoped2")
        barrier = threading.Barrier(2)
        results = {}

        def run(name, be):
            with use_backend(be):
                barrier.wait()
                results[name] = active_backend()
                barrier.wait()
            results[name + "_after"] = active_backend()

        threads = [
            threading.Thread(target=run, args=("t1", b1)),
            threading.Thread(target=run, args=("t2", b2)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results["t1"] is b1
        assert results["t2"] is b2
        assert results["t1_after"] is NUMPY_BACKEND
        assert results["t2_after"] is NUMPY_BACKEND

    def test_use_backend_overrides_default_in_same_thread(self):
        sh = ShadowBackend()
        set_backend(sh)
        other = ShadowBackend("inner")
        with use_backend(other):
            assert active_backend() is other
        assert active_backend() is sh


class _FakeDtype:
    """Foreign dtype token, like ``torch.float32``: rejected by ``np.dtype``."""

    def __init__(self, np_dt):
        self.np = np.dtype(np_dt)

    def __repr__(self):
        return f"fake.{self.np.name}"


class _FakeArray:
    """Minimal torch-tensor stand-in: ndarray inside, foreign dtype out."""

    def __init__(self, arr):
        self.arr = np.asarray(arr)

    @property
    def shape(self):
        return self.arr.shape

    @property
    def ndim(self):
        return self.arr.ndim

    @property
    def dtype(self):
        return _FakeDtype(self.arr.dtype)

    def __getitem__(self, idx):
        return _FakeArray(self.arr[idx])

    def reshape(self, *shape):
        return _FakeArray(self.arr.reshape(*shape))


class FakeDeviceBackend(ArrayBackend):
    """NumPy arithmetic behind torch-like native arrays.

    Native arrays expose a ``dtype`` that ``np.dtype`` cannot interpret
    and ``empty`` rejects such tokens, reproducing the dtype-translation
    hazard of a real device backend without needing torch installed.
    The arithmetic underneath is the literal NumPy ops in the same
    order, so results must stay bitwise identical to the reference.
    """

    name = "fake-device"
    capabilities = BackendCapabilities(
        ieee_fp32_accumulation=True,
        bitwise_numpy=True,
        device="cpu",
        native_is_numpy=False,
    )

    def to_native(self, x):
        return _FakeArray(np.ascontiguousarray(x).copy())

    def to_numpy(self, x):
        return x.arr

    def empty(self, shape, dtype):
        if isinstance(dtype, _FakeDtype):
            # The same rejection torch's empty() makes for torch dtypes
            # routed through np.dtype-based keying.
            raise TypeError(f"cannot allocate from native dtype token {dtype!r}")
        return _FakeArray(np.empty(shape, dtype=np.dtype(dtype)))

    def cast(self, x, dtype):
        return _FakeArray(x.arr.astype(np.dtype(dtype), copy=False))

    def nbytes(self, x):
        return x.arr.nbytes

    def result_dtype(self, a, b):
        return np.result_type(a.arr.dtype, b.arr.dtype)

    def matmul(self, a, b, out=None):
        if out is None:
            return _FakeArray(np.matmul(a.arr, b.arr))
        np.matmul(a.arr, b.arr, out=out.arr)
        return out

    def add_(self, out, x):
        np.add(out.arr, x.arr, out=out.arr)
        return out

    def reduce(self, x, axis=None):
        return np.sum(x.arr, axis=axis)


class TestFusedBatchedForeignDtype:
    """Regression: the fused engine's workspace request must speak
    NumPy dtypes while its operands are *backend-native* — passing the
    native ``.dtype`` (e.g. ``torch.float32``) into the pool's
    ``np.dtype``-based key crashed every split-mode GEMM with >1
    component pair on non-NumPy-native backends.  Runs the one engine
    on the fake-device backend."""

    MODES = [
        ComputeMode.FLOAT_TO_BF16X2,
        ComputeMode.FLOAT_TO_BF16X3,
        ComputeMode.FLOAT_TO_TF32,
    ]

    @pytest.mark.parametrize("mode", MODES, ids=lambda m: m.name)
    def test_batched_split_gemm_bitwise(self, mode):
        a = rng.standard_normal((9, 7)).astype(np.float32)
        b = rng.standard_normal((7, 8)).astype(np.float32)
        with compute_mode(mode):
            ref = gemm(a, b)
            with use_backend(FakeDeviceBackend()):
                got = gemm(a, b)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize(
        "m, k, n",
        [(9, 7, 8), (9, 1100, 8), (96, 30, 90)],
        ids=["small", "chunked", "large"],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.complex64], ids=["sgemm", "cgemm"])
    def test_ozaki_bitwise_vs_oracle(self, dtype, m, k, n):
        # OZAKI_INT8's compact slices are mirrored into the backend and
        # multiplied there (the exponents stay NumPy); every slice
        # product is exact, so any IEEE-FP32 backend gives the oracle's
        # bits.
        from gemm_oracles import ozaki_gemm_reference

        from repro.blas.complex3m import gemm_4m

        def draw(shape):
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
            if np.dtype(dtype).kind == "c":
                x = x + 1j * rng.standard_normal(shape)
            return x.astype(dtype)

        a, b = draw((m, k)), draw((k, n))
        if np.dtype(dtype).kind == "c":
            ref = gemm_4m(a, b, real_gemm=lambda x, y: ozaki_gemm_reference(x, y, 3))
        else:
            ref = ozaki_gemm_reference(a, b, 3)
        pa = prepare(a)
        try:
            with compute_mode(ComputeMode.OZAKI_INT8), use_backend(FakeDeviceBackend()):
                for x in (a, pa, pa):  # plain, then the prepared plan twice
                    got = gemm(x, b)
                    assert got.dtype == ref.dtype
                    view = np.uint64 if got.dtype.kind == "c" else np.uint32
                    np.testing.assert_array_equal(got.view(view), ref.view(view))
        finally:
            release(pa)


class TestTorchBackendRegressions:
    """Torch-specific regressions (skipped only when torch is absent)."""

    pytestmark = pytest.mark.skipif(not HAVE_TORCH, reason="torch not installed")

    @pytest.mark.parametrize(
        "mode",
        [ComputeMode.FLOAT_TO_BF16X2, ComputeMode.FLOAT_TO_BF16X3],
        ids=lambda m: m.name,
    )
    def test_batched_fused_split_gemm(self, mode):
        # The engine writes torch-native products into a workspace
        # buffer — this crashed when the pool keyed on torch dtypes.
        be = get_backend("torch-cpu")
        a = rng.standard_normal((9, 7)).astype(np.float32)
        b = rng.standard_normal((7, 8)).astype(np.float32)
        with compute_mode(mode):
            ref = gemm(a, b)
            with use_backend(be):
                got = gemm(a, b)
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-7 * np.abs(ref).max())

    def test_tf32_global_untouched_by_construction(self):
        import torch

        from repro.blas.backend_torch import TorchBackend

        mm = torch.backends.cuda.matmul
        prev = mm.allow_tf32
        try:
            for flag in (True, False):
                mm.allow_tf32 = flag
                TorchBackend(device="cpu")
                assert mm.allow_tf32 is flag
        finally:
            mm.allow_tf32 = prev

    def test_tf32_pinned_and_restored_per_dispatch(self, monkeypatch):
        import torch

        from repro.blas.backend_torch import TorchBackend

        be = TorchBackend(device="cpu")
        mm = torch.backends.cuda.matmul
        prev = mm.allow_tf32
        seen = {}
        real = torch.matmul

        def spy(x, y, out=None):
            seen["tf32_during"] = mm.allow_tf32
            return real(x, y) if out is None else real(x, y, out=out)

        monkeypatch.setattr(torch, "matmul", spy)
        try:
            # Exercise the CUDA dispatch guard with CPU tensors: the
            # global is settable without a device, and matmul must pin
            # it to the instance's setting then restore the foreign one.
            be._is_cuda = True
            be.allow_tf32 = False
            mm.allow_tf32 = True
            a = be.to_native(np.ones((2, 2), dtype=np.float32))
            be.matmul(a, a)
            assert seen["tf32_during"] is False
            assert mm.allow_tf32 is True
        finally:
            mm.allow_tf32 = prev


class TestRegistration:
    def test_register_backend_resolvable_by_name(self):
        backend_mod.register_backend("shadow-test", ShadowBackend)
        try:
            got = get_backend("shadow-test")
            assert isinstance(got, ShadowBackend)
            assert get_backend("shadow-test") is got  # cached instance
        finally:
            with backend_mod._instances_lock:
                backend_mod._FACTORIES.pop("shadow-test", None)
                backend_mod._instances.pop("shadow-test", None)

    def test_abstract_backend_raises(self):
        be = ArrayBackend()
        with pytest.raises(NotImplementedError):
            be.matmul(np.ones((2, 2)), np.ones((2, 2)))
