"""Telemetry subsystem: counters, span timers and trace exporters.

One substrate unifies the reproduction's instrumentation (the
MKL_VERBOSE-style per-call log, the split-plan cache statistics, the
workspace reuse accounting, per-QD-step and per-SCF-block phase
timings) behind a single on/off switch with a no-op disabled path.

Quickstart::

    from repro import telemetry

    with telemetry.telemetry(out_dir="out/") as t:
        sim.run(mode="FLOAT_TO_BF16")
    # out/trace.jsonl, out/trace.chrome.json, out/summary.txt

or, with no source changes, ``REPRO_TELEMETRY=1`` plus
``dcmesh-repro table6 --telemetry out/``.  See docs/OBSERVABILITY.md.
"""

from repro.telemetry.registry import (
    BUCKET_BOUNDS,
    MAX_EVENTS,
    MAX_EVENTS_ENV,
    TELEMETRY_ENV,
    Histogram,
    Telemetry,
    active,
    disable,
    enable,
    format_counter_name,
    parse_counter_name,
    telemetry,
    telemetry_enabled,
)
from repro.telemetry.provenance import (
    call_site_id,
    current_site_id,
    site_scope,
)
from repro.telemetry.exporters import (
    export_all,
    read_chrome_trace,
    read_jsonl,
    summary_table,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.drift import (
    DRIFT_ENV,
    DriftMonitor,
    ErrorBudget,
    ReferenceTrajectory,
    drift_enabled,
    drift_monitoring,
    install_drift_monitor,
    active_drift_monitor,
    set_drift_enabled,
)
from repro.telemetry.report import generate_run_report, render_run_report

__all__ = [
    "BUCKET_BOUNDS",
    "MAX_EVENTS",
    "MAX_EVENTS_ENV",
    "TELEMETRY_ENV",
    "Histogram",
    "Telemetry",
    "active",
    "disable",
    "enable",
    "format_counter_name",
    "parse_counter_name",
    "telemetry",
    "telemetry_enabled",
    "call_site_id",
    "current_site_id",
    "site_scope",
    "export_all",
    "read_chrome_trace",
    "read_jsonl",
    "summary_table",
    "write_chrome_trace",
    "write_jsonl",
    "DRIFT_ENV",
    "DriftMonitor",
    "ErrorBudget",
    "ReferenceTrajectory",
    "drift_enabled",
    "drift_monitoring",
    "install_drift_monitor",
    "active_drift_monitor",
    "set_drift_enabled",
    "generate_run_report",
    "render_run_report",
]
