"""Shared scalar/array type vocabulary used across the package.

The paper distinguishes *storage* precision (FP64 vs FP32 for the LFD
wavefunctions) from the *compute mode* of the BLAS calls operating on
that storage (BF16/TF32/... emulated internally by the library).  This
module holds the storage-precision vocabulary; the compute modes live
in :mod:`repro.blas.modes`.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "Precision",
    "ROUTINES",
    "real_dtype",
    "complex_dtype",
    "MANTISSA_BITS",
    "EXPONENT_BITS",
]


class Precision(enum.Enum):
    """Storage / arithmetic precision formats discussed in the paper.

    Table IV of the paper lists the exponent/mantissa widths of the
    four formats relevant to the study; ``FP16`` and ``INT8`` appear
    only in the theoretical-peak table (Table I) and are included for
    completeness.
    """

    FP64 = "fp64"
    FP32 = "fp32"
    TF32 = "tf32"
    BF16 = "bf16"
    FP16 = "fp16"
    INT8 = "int8"

    @property
    def is_native(self) -> bool:
        """Whether NumPy can store this format directly.

        TF32 and BF16 have no NumPy dtype; they are emulated as FP32
        values whose low mantissa bits are zero (see
        :mod:`repro.blas.rounding`).
        """
        return self in (Precision.FP64, Precision.FP32, Precision.FP16)


#: Number of explicit mantissa (fraction) bits per format — Table IV.
MANTISSA_BITS = {
    Precision.FP64: 52,
    Precision.FP32: 23,
    Precision.TF32: 10,
    Precision.BF16: 7,
    Precision.FP16: 10,
}

#: Number of exponent bits per format — Table IV.
EXPONENT_BITS = {
    Precision.FP64: 11,
    Precision.FP32: 8,
    Precision.TF32: 8,
    Precision.BF16: 8,
    Precision.FP16: 5,
}


#: The BLAS GEMM routines the paper exercises: name -> storage dtype of
#: their operands and result.
ROUTINES = {
    "sgemm": np.dtype(np.float32),
    "dgemm": np.dtype(np.float64),
    "cgemm": np.dtype(np.complex64),
    "zgemm": np.dtype(np.complex128),
}


def real_dtype(precision: Precision) -> np.dtype:
    """Return the NumPy dtype used to *store* real data at ``precision``.

    Non-native formats (BF16, TF32) are stored in FP32 carriers.
    """
    if precision is Precision.FP64:
        return np.dtype(np.float64)
    if precision in (Precision.FP32, Precision.BF16, Precision.TF32):
        return np.dtype(np.float32)
    if precision is Precision.FP16:
        return np.dtype(np.float16)
    raise ValueError(f"no real storage dtype for {precision}")


def complex_dtype(precision: Precision) -> np.dtype:
    """Return the NumPy dtype used to *store* complex data at ``precision``."""
    if precision is Precision.FP64:
        return np.dtype(np.complex128)
    if precision in (Precision.FP32, Precision.BF16, Precision.TF32):
        return np.dtype(np.complex64)
    raise ValueError(f"no complex storage dtype for {precision}")
