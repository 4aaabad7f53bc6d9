"""Profiling substrate: analysis of the modelled device's calls.

* :mod:`repro.profiling.roofline_report` — which roofline wall each
  GEMM call hits on the modelled Max 1550 stack (Section V-C's
  bandwidth explanation of the 3.91x-vs-16x gap).

The paper's unitrace "Total L0 Time" is ``Device.total_l0_time()``
over the :class:`repro.gpu.timeline.Timeline`, and its ``MKL_VERBOSE``
log is :mod:`repro.blas.verbose`.
"""

from repro.profiling.roofline_report import (
    RooflineEntry,
    render_roofline,
    ridge_point,
    roofline_entries,
)

__all__ = [
    "RooflineEntry",
    "render_roofline",
    "ridge_point",
    "roofline_entries",
]
