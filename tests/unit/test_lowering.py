"""One lowering per GEMM: the products the emulation runs, the mode its
call record names and the cost the device model prices all follow
:meth:`repro.blas.modes.ComputeMode.lower`."""

import math

import numpy as np
import pytest

from repro.blas import gemm, mkl_verbose, use_backend
from repro.blas.backend import NumpyBackend
from repro.blas.modes import ComputeMode, Lowering
from repro.gpu.gemm_model import GemmModel
from repro.telemetry.registry import telemetry
from repro.types import ROUTINES, Precision

M, K, N = 6, 9, 5

routines = pytest.mark.parametrize("routine", sorted(ROUTINES))
modes = pytest.mark.parametrize("mode", list(ComputeMode), ids=lambda m: m.name)


class CountingBackend(NumpyBackend):
    """NumPy backend that counts the real component products of every
    matmul: the broadcast batch size, times 4 for complex operands."""

    def __init__(self):
        self.products = 0

    def matmul(self, a, b, out=None):
        batch = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
        complex_ = np.iscomplexobj(a) or np.iscomplexobj(b)
        self.products += batch * (4 if complex_ else 1)
        return super().matmul(a, b, out=out)


def _operands(routine):
    dtype = ROUTINES[routine]
    rng = np.random.default_rng(17)

    def draw(shape):
        x = rng.standard_normal(shape)
        if dtype.kind == "c":
            x = x + 1j * rng.standard_normal(shape)
        return x.astype(dtype)

    return draw((M, K)), draw((K, N))


@routines
@modes
def test_emulation_runs_the_products_the_model_prices(routine, mode):
    a, b = _operands(routine)
    be = CountingBackend()
    with use_backend(be):
        gemm(a, b, mode=mode)
    assert be.products == GemmModel().cost(routine, M, N, K, mode).n_component_products


@routines
@modes
def test_record_names_the_mode_the_model_honours(routine, mode):
    a, b = _operands(routine)
    with mkl_verbose() as log:
        gemm(a, b, mode=mode)
    assert [r.routine for r in log] == [routine]
    assert log[0].mode is GemmModel().effective_mode(routine, mode)


@pytest.mark.parametrize(
    "mode, routine, precision, n_terms",
    [
        (ComputeMode.FLOAT_TO_BF16X2, "sgemm", "BF16", 2),
        (ComputeMode.FLOAT_TO_TF32, "cgemm", "TF32", 1),
        (ComputeMode.OZAKI_INT8, "sgemm", "INT8", 3),
        (ComputeMode.EMULATED_FP64, "zgemm", "FP64", 3),
        (ComputeMode.EMULATED_FP64, "sgemm", "FP64", 1),
    ],
)
def test_fused_engine_counter_labels(mode, routine, precision, n_terms):
    a, b = _operands(routine)
    with telemetry() as t:
        gemm(a, b, mode=mode)
    labels = [dict(key) for name, key in t.counters if name == "blas.split_gemm_fused"]
    assert labels
    assert {(x["precision"], x["n_terms"]) for x in labels} == {(precision, str(n_terms))}


def test_lowering_table():
    f32, f64, c64, c128 = (ROUTINES[r] for r in ("sgemm", "dgemm", "cgemm", "zgemm"))
    assert ComputeMode.FLOAT_TO_BF16X3.lower(c64) == Lowering(
        ComputeMode.FLOAT_TO_BF16X3, "split", Precision.BF16, 3
    )
    assert ComputeMode.FLOAT_TO_BF16X3.lower(c128) == Lowering(
        ComputeMode.STANDARD, None, Precision.FP64, 1
    )
    assert ComputeMode.COMPLEX_3M.lower(f32) == Lowering(
        ComputeMode.STANDARD, None, Precision.FP32, 1
    )
    assert ComputeMode.COMPLEX_3M.lower(c128).n_products(True) == 3
    assert ComputeMode.OZAKI_INT8.lower(f64).mode is ComputeMode.STANDARD
    efp64 = ComputeMode.EMULATED_FP64
    assert efp64.lower(f64) == Lowering(efp64, "efp64", Precision.FP32, 3)
    assert efp64.lower(f32).n_terms == 1
    assert efp64.lower(c128).n_products(True) == 24


@routines
@modes
def test_honoured_mode_lowers_to_the_same_lowering(routine, mode):
    # The device books a call by its honoured mode, so re-lowering that
    # mode must give back the call's own lowering.
    lowering = mode.lower(ROUTINES[routine])
    assert lowering.mode.lower(ROUTINES[routine]) == lowering
