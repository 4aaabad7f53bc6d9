"""Roofline analysis of a modelled run — which wall does each call hit?

Section V-C explains the 3.91x-vs-16x gap with two limits ("memory and
cache bandwidth limitations and power limitations").  This report makes
that analysis systematic: for a set of GEMM calls it tabulates the
arithmetic intensity, the machine's ridge point at each precision, and
which side of the ridge the call lands on — with an ASCII roofline so
the reproduction is legible in a terminal.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Sequence

import numpy as np

from repro.blas.modes import ComputeMode
from repro.gpu.gemm_model import GemmCost, GemmModel
from repro.gpu.specs import DeviceSpec, MAX_1550_STACK

__all__ = ["RooflineEntry", "roofline_entries", "render_roofline", "ridge_point"]


@dataclasses.dataclass(frozen=True)
class RooflineEntry:
    """One GEMM call placed on the roofline."""

    label: str
    mode: ComputeMode
    intensity: float          #: flops per byte
    achieved_flops: float     #: flops / modelled seconds
    bound: str                #: 'compute' | 'memory' | 'launch'
    seconds: float


def ridge_point(spec: DeviceSpec, mode: ComputeMode) -> float:
    """Arithmetic intensity where the compute roof of the mode's
    single-precision multiply format meets the memory roof (flops/byte)."""
    rate = spec.sustained(mode.lower(np.float32).multiply)
    return rate / spec.effective_bandwidth()


def roofline_entries(
    calls: Sequence[tuple],
    modes: Iterable[ComputeMode] = (ComputeMode.STANDARD, ComputeMode.FLOAT_TO_BF16),
    spec: DeviceSpec = MAX_1550_STACK,
) -> List[RooflineEntry]:
    """Place calls on the roofline.

    ``calls`` is a sequence of ``(label, routine, m, n, k)``.
    """
    model = GemmModel(spec)
    entries: List[RooflineEntry] = []
    for label, routine, m, n, k in calls:
        for mode in modes:
            cost: GemmCost = model.cost(routine, m, n, k, mode)
            entries.append(
                RooflineEntry(
                    label=label,
                    mode=cost.mode,
                    intensity=cost.point.arithmetic_intensity,
                    achieved_flops=cost.point.flops / cost.seconds,
                    bound=cost.bound,
                    seconds=cost.seconds,
                )
            )
    return entries


def render_roofline(
    entries: Sequence[RooflineEntry],
    spec: DeviceSpec = MAX_1550_STACK,
    width: int = 64,
    height: int = 14,
) -> str:
    """ASCII log-log roofline with the entries marked.

    The memory roof is the diagonal, the compute roofs are horizontal;
    each entry is plotted with an index referencing the legend below.
    """
    if not entries:
        raise ValueError("no entries to plot")
    xs = np.array([max(e.intensity, 1e-3) for e in entries])
    ys = np.array([max(e.achieved_flops, 1.0) for e in entries])
    x_lo = 10 ** np.floor(np.log10(xs.min()))
    x_hi = 10 ** np.ceil(np.log10(xs.max() * 10))
    bw = spec.effective_bandwidth()
    y_hi = 10 ** np.ceil(np.log10(max(ys.max(), bw * x_hi / 10)))
    y_lo = 10 ** np.floor(np.log10(ys.min()))

    def col(x):
        return int((np.log10(x) - np.log10(x_lo))
                   / (np.log10(x_hi) - np.log10(x_lo)) * (width - 1))

    def row(y):
        return int((np.log10(y_hi) - np.log10(y))
                   / (np.log10(y_hi) - np.log10(y_lo)) * (height - 1))

    grid = [[" "] * width for _ in range(height)]
    # Memory roof: flops = bw * intensity.
    for c in range(width):
        x = 10 ** (np.log10(x_lo) + c / (width - 1) * (np.log10(x_hi) - np.log10(x_lo)))
        y = bw * x
        if y_lo <= y <= y_hi:
            grid[row(y)][c] = "/"
    # Entries.
    for i, (x, y) in enumerate(zip(xs, ys)):
        r, c = row(min(max(y, y_lo), y_hi)), col(min(max(x, x_lo), x_hi))
        grid[r][c] = str(i % 10)

    lines = [f"achieved FLOP/s (log), roof bandwidth {bw / 1e12:.2f} TB/s"]
    lines += ["".join(r) for r in grid]
    lines.append("arithmetic intensity (flops/byte, log) ->")
    for i, e in enumerate(entries):
        lines.append(
            f"  [{i % 10}] {e.label:<18s} {e.mode.env_value:<16s} "
            f"AI={e.intensity:8.1f}  {e.achieved_flops / 1e12:7.2f} TFLOP/s  "
            f"{e.bound}"
        )
    return "\n".join(lines)
