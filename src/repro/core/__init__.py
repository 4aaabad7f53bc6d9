"""The paper's study itself — the primary contribution layer.

* :mod:`repro.core.theoretical` — the static tables (I, II, IV).
* :mod:`repro.core.schedule` — the per-QD-step kernel schedule of
  DCMESH's LFD phase, used to evaluate paper-scale timings without
  allocating paper-scale arrays.
* :mod:`repro.core.study` — accuracy study: run every compute mode on
  the same system, collect observables (Figs. 1-2).
* :mod:`repro.core.deviation` — deviation-from-FP32 series.
* :mod:`repro.core.perfstudy` — end-to-end QD-step timing per mode
  (Fig. 3a).
* :mod:`repro.core.blas_sweep` — per-call BLAS speedups vs orbital
  count (Fig. 3b, Tables VI-VII).
* :mod:`repro.core.error_model` — Section V-B's analytic rounding
  error bound and its empirical verification.
* :mod:`repro.core.report` — plain-text/CSV rendering of the rows the
  paper prints.
"""

from repro.core.theoretical import (
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)
from repro.core.schedule import GemmCall, StreamPass, qd_step_schedule
from repro.core.deviation import DeviationSeries, deviation_from_reference
from repro.core.study import PrecisionStudy, StudyResult
from repro.core.perfstudy import PerfStudy, StepTiming
from repro.core.blas_sweep import BlasSweep, SweepPoint
from repro.core.error_model import (
    multiplication_error_bound,
    observed_gemm_relative_error,
)
from repro.core.ablation import (
    accumulation_precision_ablation,
    complex_3m_cancellation,
    device_sensitivity,
    scf_cadence_ablation,
    split_terms_pareto,
)
from repro.core.error_budget import (
    DriftFit,
    budget_table,
    fit_drift,
    per_step_state_error,
)
from repro.core.plots import ascii_plot, plot_deviation_series
from repro.core.report import render_table, write_csv

__all__ = [
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "GemmCall",
    "StreamPass",
    "qd_step_schedule",
    "DeviationSeries",
    "deviation_from_reference",
    "PrecisionStudy",
    "StudyResult",
    "PerfStudy",
    "StepTiming",
    "BlasSweep",
    "SweepPoint",
    "multiplication_error_bound",
    "observed_gemm_relative_error",
    "accumulation_precision_ablation",
    "complex_3m_cancellation",
    "device_sensitivity",
    "scf_cadence_ablation",
    "split_terms_pareto",
    "DriftFit",
    "budget_table",
    "fit_drift",
    "per_step_state_error",
    "ascii_plot",
    "plot_deviation_series",
    "render_table",
    "write_csv",
]
