"""Static tables of the paper: I (peaks), II (modes), III (simulation
parameters), IV (formats), V (system sizes).

The artifact appendix notes that Tables 1-5 "do not require execution
of the code": they are hardware specs, mode definitions, input-file
parameters and format facts.  Each function returns the rows so tests
can pin them and the experiment scripts can print them.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.blas.modes import ComputeMode
from repro.gpu.specs import DeviceSpec, MAX_1550_STACK, peak_table
from repro.types import EXPONENT_BITS, MANTISSA_BITS, Precision, real_dtype

__all__ = [
    "table1_rows",
    "table2_rows",
    "table2_extended_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "peak_theoretical_speedup",
]


def table1_rows(spec: DeviceSpec = MAX_1550_STACK) -> List[Tuple[str, float, str, str]]:
    """Table I: theoretical peak throughput for a single stack."""
    return [(p.name, peak, unit, engine) for p, peak, unit, engine in peak_table(spec)]


def peak_theoretical_speedup(mode: ComputeMode, spec: DeviceSpec = MAX_1550_STACK) -> float:
    """Peak speedup of ``mode`` over its native baseline.

    Low-precision modes (vs FP32): (engine peak ratio) / (number of
    component products): BF16 419/26 = 16x, BF16x2 16/3, BF16x3
    16/6 = 8/3, TF32 209/26 = 8x.  COMPLEX_3M: 4/3 from the saved
    multiplication.  ``OZAKI_INT8`` follows the same formula on the
    INT8 engine peak (839/26/6 ~ 5.4x at three slices).
    ``EMULATED_FP64`` is quoted against *native FP64* — the hardware it
    targets lacks (fast) FP64 units, so the meaningful ratio is the
    FP32-engine peak over the FP64 peak divided by the six pair
    products.
    """
    if mode is ComputeMode.STANDARD:
        return 1.0
    if mode.uses_3m:
        return 4.0 / 3.0
    native = Precision.FP64 if mode.uses_fp64_emulation else Precision.FP32
    lowering = mode.lower(real_dtype(native))
    peak_ratio = spec.peak(lowering.multiply) / spec.peak(native)
    return peak_ratio / lowering.n_pairs


def table2_rows(spec: DeviceSpec = MAX_1550_STACK) -> List[Tuple[str, str, float]]:
    """Table II: (mode, environment value, peak theoretical speedup)."""
    modes = [
        ComputeMode.FLOAT_TO_BF16,
        ComputeMode.FLOAT_TO_BF16X2,
        ComputeMode.FLOAT_TO_BF16X3,
        ComputeMode.FLOAT_TO_TF32,
        ComputeMode.COMPLEX_3M,
    ]
    return [
        (m.name, m.env_value, peak_theoretical_speedup(m, spec)) for m in modes
    ]


def table2_extended_rows(spec: DeviceSpec = MAX_1550_STACK) -> List[Tuple[str, str, float]]:
    """Post-paper modes in Table II's format (kept separate so the
    pinned paper rows stay byte-stable).

    ``OZAKI_INT8`` is quoted vs FP32 like the paper modes;
    ``EMULATED_FP64`` vs native FP64 (see
    :func:`peak_theoretical_speedup`).
    """
    modes = [ComputeMode.OZAKI_INT8, ComputeMode.EMULATED_FP64]
    return [
        (m.name, m.env_value, peak_theoretical_speedup(m, spec)) for m in modes
    ]


def table3_rows() -> List[Tuple[str, float]]:
    """Table III: key simulation parameters of the accuracy runs."""
    return [
        ("Timestep (a.u.)", 0.02),
        ("Total Number of QD Steps", 21_000),
        ("Total Simulation Time (fs)", 10.0),
    ]


def table4_rows() -> List[Tuple[str, int, int]]:
    """Table IV: exponent and mantissa bits per precision format."""
    order = [Precision.FP64, Precision.FP32, Precision.TF32, Precision.BF16]
    return [(p.name, EXPONENT_BITS[p], MANTISSA_BITS[p]) for p in order]


def table5_rows() -> List[Tuple[int, str, int]]:
    """Table V: system sizes studied (atoms, mesh, N_orb)."""
    return [
        (40, "64x64x64", 256),
        (135, "96x96x96", 1024),
    ]
