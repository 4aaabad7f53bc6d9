"""Software emulation of Intel oneMKL *alternative compute modes* for BLAS.

The paper enables the modes purely through the environment variable
``MKL_BLAS_COMPUTE_MODE`` — "no source code changes" — and this package
honours the same contract: every GEMM entry point consults the variable
(or an explicit override) and internally rounds/splits its FP32 inputs
exactly the way oneMKL describes:

* ``FLOAT_TO_BF16`` — round inputs to BF16 (round-to-nearest-even),
  multiply the BF16 component matrices on the (emulated) systolic
  array, accumulate in FP32.
* ``FLOAT_TO_BF16X2`` / ``FLOAT_TO_BF16X3`` — decompose each FP32 input
  into a sum of 2 / 3 BF16 values and accumulate the 3 / 6 cheapest
  component products in FP32.
* ``FLOAT_TO_TF32`` — like BF16 with TF32 (10 mantissa bits) instead.
* ``COMPLEX_3M`` — 3-multiplication complex matrix multiply
  (Karatsuba-style), trading one real GEMM for extra additions.

Because a BF16 x BF16 (or TF32 x TF32) product is exact in FP32
arithmetic (8x8 -> 16 and 11x11 -> 22 significant bits, both under
FP32's 24), an FP32 matmul over rounded inputs reproduces the XMX
numerics exactly up to accumulation order.
"""

from repro.blas.backend import (
    ArrayBackend,
    BackendCapabilities,
    BackendUnavailable,
    NumpyBackend,
    REPRO_BACKEND_ENV,
    active_backend,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.blas.modes import (
    ComputeMode,
    MKL_COMPUTE_MODE_ENV,
    compute_mode,
    get_compute_mode,
    resolve_mode,
    set_compute_mode,
)
from repro.blas.rounding import (
    round_fp32_to_bf16,
    round_fp32_to_tf32,
    round_mantissa,
    split_bf16,
    split_tf32,
)
from repro.blas.gemm import (
    gemm,
    sgemm,
    dgemm,
    cgemm,
    zgemm,
    check_finite,
    finite_checks,
    finite_checks_enabled,
)
from repro.blas.complex3m import gemm_3m
from repro.blas.plan import (
    PreparedOperand,
    plan_cache_clear,
    plan_cache_info,
    prepare,
    release,
)
from repro.blas.workspace import clear_workspace
from repro.blas.policy import SitePolicy, active_policy
from repro.blas.verbose import (
    VerboseRecord,
    get_verbose_log,
    mkl_verbose,
    verbose_enabled,
)

__all__ = [
    "ArrayBackend",
    "BackendCapabilities",
    "BackendUnavailable",
    "NumpyBackend",
    "REPRO_BACKEND_ENV",
    "active_backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
    "ComputeMode",
    "MKL_COMPUTE_MODE_ENV",
    "compute_mode",
    "get_compute_mode",
    "resolve_mode",
    "set_compute_mode",
    "round_fp32_to_bf16",
    "round_fp32_to_tf32",
    "round_mantissa",
    "split_bf16",
    "split_tf32",
    "gemm",
    "sgemm",
    "dgemm",
    "cgemm",
    "zgemm",
    "gemm_3m",
    "check_finite",
    "finite_checks",
    "finite_checks_enabled",
    "PreparedOperand",
    "prepare",
    "release",
    "plan_cache_clear",
    "plan_cache_info",
    "clear_workspace",
    "SitePolicy",
    "active_policy",
    "VerboseRecord",
    "get_verbose_log",
    "mkl_verbose",
    "verbose_enabled",
]
