"""Analytical performance model of one Intel Data Center GPU Max 1550 stack.

The paper measures on real silicon; this package is the substitution:
a roofline-style model with the published device parameters (Table I
peaks, EU count and frequency, HBM bandwidth, memory capacity) plus
two empirically motivated derates (power-limited sustained throughput
and tile-granularity efficiency).  It predicts per-GEMM execution time
for every compute mode and provides a unitrace-like kernel timeline so
the harness can extract "Total L0 Time" the way the artifact does.

The model is calibrated against the paper's reported anchors —
3.91x max BF16 BLAS speedup at N_orb = 4096, ~1.5x FP32->BF16 and
~1.9x FP64->FP32 end-to-end on the 135-atom system — and is used for
all paper-scale timing numbers (Figs. 3a/3b, Tables VI/VII).
"""

from repro.gpu.specs import (
    DeviceSpec,
    EngineKind,
    MAX_1550_STACK,
    peak_table,
)
from repro.gpu.roofline import RooflinePoint, roofline_time
from repro.gpu.gemm_model import GemmCost, GemmModel
from repro.gpu.timeline import KernelEvent, Timeline
from repro.gpu.executor import Device

__all__ = [
    "DeviceSpec",
    "EngineKind",
    "MAX_1550_STACK",
    "peak_table",
    "RooflinePoint",
    "roofline_time",
    "GemmCost",
    "GemmModel",
    "KernelEvent",
    "Timeline",
    "Device",
]
