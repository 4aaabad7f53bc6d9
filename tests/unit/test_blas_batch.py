"""Unit tests: batched GEMM with compute modes."""

import numpy as np
import pytest

from repro.blas.batch import gemm_batch
from repro.blas.gemm import gemm, use_device
from repro.blas.modes import ComputeMode
from repro.blas.verbose import format_verbose_line, mkl_verbose

pytestmark = pytest.mark.usefixtures("clean_mode_env")

MODES = list(ComputeMode)


def _stack(rng, batch=4, m=6, k=5, n=7, dtype=np.float32):
    a = rng.standard_normal((batch, m, k))
    b = rng.standard_normal((batch, k, n))
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal(a.shape)
        b = b + 1j * rng.standard_normal(b.shape)
    return a.astype(dtype), b.astype(dtype)


class TestSemantics:
    def test_matches_per_item_gemm_every_mode(self, rng):
        a, b = _stack(rng)
        for mode in MODES:
            batched = gemm_batch(a, b, mode=mode)
            for i in range(a.shape[0]):
                np.testing.assert_array_equal(
                    batched[i], gemm(a[i], b[i], mode=mode),
                    err_msg=str(mode),
                )

    def test_complex_matches_per_item(self, rng):
        a, b = _stack(rng, dtype=np.complex64)
        for mode in (ComputeMode.FLOAT_TO_BF16, ComputeMode.COMPLEX_3M):
            batched = gemm_batch(a, b, mode=mode)
            for i in range(a.shape[0]):
                np.testing.assert_array_equal(batched[i], gemm(a[i], b[i], mode=mode))

    def test_transposes(self, rng):
        a, b = _stack(rng, m=5, k=5, n=5, dtype=np.complex64)
        out = gemm_batch(a, b, trans_a="C")
        for i in range(a.shape[0]):
            np.testing.assert_allclose(out[i], a[i].conj().T @ b[i], rtol=1e-5)

    def test_alpha(self, rng):
        a, b = _stack(rng)
        np.testing.assert_allclose(
            gemm_batch(a, b, alpha=2.0), 2.0 * gemm_batch(a, b), rtol=1e-6
        )

    def test_site_policy_applies_like_gemm(self, rng):
        from repro.blas.gemm import call_site
        from repro.blas.policy import SitePolicy

        a, b = _stack(rng, batch=3, m=8, k=64, n=8)
        with SitePolicy({"remap_occ": "FLOAT_TO_BF16"}).active(), call_site(
            "remap_occ"
        ):
            with mkl_verbose() as log:
                batched = gemm_batch(a, b)
            per_slice = [gemm(a[i], b[i]) for i in range(3)]
        assert log[0].mode is ComputeMode.FLOAT_TO_BF16
        for i in range(3):
            assert np.array_equal(
                batched[i].view(np.uint32), per_slice[i].view(np.uint32)
            )

    def test_validation(self, rng):
        a, b = _stack(rng)
        with pytest.raises(ValueError, match="3-D"):
            gemm_batch(a[0], b)
        with pytest.raises(ValueError, match="batch dimensions"):
            gemm_batch(a[:2], b[:3])
        with pytest.raises(ValueError, match="inner dimensions"):
            gemm_batch(a, np.swapaxes(b, 1, 2))
        a_nan = a.copy()
        a_nan[0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            gemm_batch(a_nan, b)


class TestInstrumentation:
    def test_single_verbose_record_with_batch(self, rng):
        a, b = _stack(rng, batch=5, dtype=np.complex64)
        with mkl_verbose() as log:
            gemm_batch(a, b, mode="FLOAT_TO_BF16")
        assert len(log) == 1
        rec = log[0]
        assert rec.batch == 5
        assert rec.routine == "cgemm"
        line = format_verbose_line(rec)
        assert "CGEMM_BATCH" in line and "batch:5" in line

    def test_flops_scale_with_batch(self, rng):
        a, b = _stack(rng, batch=3)
        with mkl_verbose() as log:
            gemm_batch(a, b)
        assert log[0].flops == 3 * 2 * 6 * 7 * 5

    def test_device_booking_amortises_launch(self, rng):
        from repro.gpu import Device

        a, b = _stack(rng, batch=8, dtype=np.complex64)
        dev = Device()
        with use_device(dev):
            gemm_batch(a, b)
        single = dev.model.cost("cgemm", 6, 7, 5, ComputeMode.STANDARD)
        booked = dev.timeline.events[0]
        assert booked.name == "cgemm_batch"
        body = max(single.point.compute_seconds, single.point.memory_seconds)
        assert booked.duration == pytest.approx(
            8 * body + single.point.overhead_seconds
        )
        # Far cheaper than eight separate launches.
        assert booked.duration < 8 * single.seconds

    def test_batch_validation_on_device(self):
        from repro.gpu import Device

        with pytest.raises(ValueError, match="batch"):
            Device().record_gemm_batch("cgemm", 4, 4, 4, 0, ComputeMode.STANDARD)
