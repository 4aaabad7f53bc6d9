"""Run-report generation: one human-first markdown page per run.

The telemetry subsystem produces machine-first artifacts (JSONL trace,
Chrome trace, counter dump).  This module joins them into a single
``run_report.md`` that answers the questions a precision study
actually asks of a run:

* **What ran** — event/drop totals, wall span of the trace.
* **Where the FLOPs went** — the per-call-site hot table built from
  the ``blas.site.*`` provenance counters (PR: drift observatory),
  one row per stable call-site ID.
* **How far the observables drifted** — the drift monitor's samples,
  budget-utilization gauges, power-law fits and any warn/breach
  alerts, reconstructed entirely from ``cat="drift"`` events and
  ``drift.*`` gauges, so the same report can be generated *offline*
  from a ``trace.jsonl`` long after the run (``scripts/make_run_report.py``).

Everything renders from one normalised trace dict (the shape
:func:`repro.telemetry.exporters.read_jsonl` returns); a live
:class:`~repro.telemetry.registry.Telemetry` collector is converted
with :func:`data_from_collector`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.telemetry.registry import Telemetry, parse_counter_name

__all__ = [
    "data_from_collector",
    "render_run_report",
    "generate_run_report",
]

PathLike = Union[str, Path]

#: Hot-table rows beyond this are summarised into one "other" line.
MAX_SITE_ROWS = 20


# ----------------------------------------------------------------------
# Input normalisation.
# ----------------------------------------------------------------------


def data_from_collector(collector: Telemetry) -> dict:
    """Normalise a live collector into the trace-dict shape."""
    snap = collector.snapshot()
    return {
        "meta": {
            "created_unix": collector.created_at,
            "n_events": snap["n_events"],
            "dropped_events": snap["dropped_events"],
        },
        "events": list(collector.events),
        "counters": snap["counters"],
        "gauges": snap.get("gauges", {}),
        "histograms": snap["histograms"],
    }


def _hist_dict(h) -> dict:
    return h.to_dict() if hasattr(h, "to_dict") else dict(h)


def _labels(flat_name: str) -> Dict[str, str]:
    _, labels = parse_counter_name(flat_name)
    return dict(labels)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:.4g}"


def _md_table(header: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


# ----------------------------------------------------------------------
# Sections.
# ----------------------------------------------------------------------


def _site_table(counters: Dict[str, float]) -> List[str]:
    """Per-call-site hot table from the ``blas.site.*`` counters."""
    sites: Dict[str, Dict[str, float]] = {}
    for flat, value in counters.items():
        if not flat.startswith("blas.site."):
            continue
        name, labels = parse_counter_name(flat)
        metric = name[len("blas.site."):]
        site = dict(labels).get("site_id", "-")
        sites.setdefault(site, {})[metric] = value
    if not sites:
        return ["_No per-site BLAS data (telemetry was not active during GEMMs)._"]
    ordered = sorted(
        sites.items(),
        key=lambda kv: (
            kv[1].get("model_seconds", kv[1].get("seconds", 0.0)),
            kv[1].get("flops", 0.0),
        ),
        reverse=True,
    )
    rows = []
    for site, m in ordered[:MAX_SITE_ROWS]:
        rows.append(
            [
                f"`{site}`",
                _fmt(m.get("calls", 0.0)),
                _fmt(m.get("flops", 0.0)),
                _fmt(m.get("bytes", 0.0)),
                f"{m.get('seconds', 0.0):.4g}",
                f"{m.get('model_seconds', 0.0):.4g}",
            ]
        )
    lines = _md_table(
        ["call site", "calls", "flops", "bytes", "wall s", "model s"], rows
    )
    if len(ordered) > MAX_SITE_ROWS:
        rest = ordered[MAX_SITE_ROWS:]
        calls = sum(m.get("calls", 0.0) for _, m in rest)
        lines.append(f"| _... {len(rest)} more sites_ | {_fmt(calls)} | | | | |")
    return lines


def _backend_table(counters: Dict[str, float]) -> List[str]:
    """Per-backend attribution from ``blas.backend.*`` counters.

    One row per executing :class:`~repro.blas.backend.ArrayBackend`
    (``cache_key``), so a mixed run — e.g. numpy warm-up followed by a
    ``use_backend("torch")`` block — shows where the BLAS wall time
    actually went.
    """
    backends: Dict[str, Dict[str, float]] = {}
    for flat, value in counters.items():
        if not flat.startswith("blas.backend."):
            continue
        name, labels = parse_counter_name(flat)
        metric = name[len("blas.backend."):]
        backend = dict(labels).get("backend", "-")
        backends.setdefault(backend, {})[metric] = value
    if not backends:
        return [
            "_No per-backend BLAS data (telemetry was not active during GEMMs)._"
        ]
    total_s = sum(m.get("seconds", 0.0) for m in backends.values())
    ordered = sorted(
        backends.items(),
        key=lambda kv: kv[1].get("seconds", 0.0),
        reverse=True,
    )
    rows = []
    for backend, m in ordered:
        seconds = m.get("seconds", 0.0)
        share = f"{100.0 * seconds / total_s:.1f}%" if total_s > 0 else "-"
        rows.append(
            [f"`{backend}`", _fmt(m.get("calls", 0.0)), f"{seconds:.4g}", share]
        )
    return _md_table(["backend", "calls", "wall s", "share"], rows)


def _drift_section(
    events: List[dict], gauges: Dict[str, float]
) -> List[str]:
    samples: Dict[str, int] = {}
    alerts: List[dict] = []
    summary_args: Optional[dict] = None
    for e in events:
        if e.get("cat") != "drift":
            continue
        args = e.get("args", {})
        name = e.get("name", "")
        if name == "drift.sample":
            obs = args.get("observable", "?")
            samples[obs] = samples.get(obs, 0) + 1
        elif name == "drift.alert":
            alerts.append(args)
        elif name == "drift.summary":
            summary_args = args

    lines: List[str] = []
    if not samples and summary_args is None and not _drift_gauges(gauges):
        return ["_No drift monitoring in this run (enable with `--drift-budget` "
                "or `REPRO_DRIFT=1`)._"]

    util = _drift_gauges(gauges)
    observables = sorted(set(samples) | set(util))
    rows = []
    for obs in observables:
        u = util.get(obs, {})
        rows.append(
            [
                obs,
                _fmt(samples.get(obs, 0)),
                _gauge_cell(u.get("budget_utilization")),
                _gauge_cell(u.get("max_utilization")),
                _gauge_cell(u.get("deviation"), fmt="{:.3e}"),
                _gauge_cell(u.get("fit.exponent")),
            ]
        )
    lines.extend(
        _md_table(
            [
                "observable",
                "samples",
                "final budget use",
                "max budget use",
                "final deviation",
                "drift exponent",
            ],
            rows,
        )
    )
    if summary_args is not None:
        lines.append("")
        lines.append(
            f"Run mode `{summary_args.get('mode', '-')}` over "
            f"{_fmt(summary_args.get('qd_steps', 0))} QD steps, "
            f"{_fmt(summary_args.get('alerts', len(alerts)))} alert(s)."
        )
    lines.append("")
    if alerts:
        lines.append("**Alerts** (first crossing per observable and level):")
        lines.append("")
        rows = [
            [
                a.get("level", "?"),
                a.get("observable", "?"),
                _fmt(a.get("step", 0)),
                f"{a.get('utilization', 0.0):.3g}",
                f"{a.get('relative', 0.0):.3e}",
                f"{a.get('envelope', 0.0):.3e}",
            ]
            for a in alerts
        ]
        lines.extend(
            _md_table(
                ["level", "observable", "step", "budget use", "relative dev",
                 "envelope"],
                rows,
            )
        )
    else:
        lines.append("No budget-threshold alerts fired.")
    return lines


def _drift_gauges(gauges: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """``{observable: {metric: value}}`` from the ``drift.*`` gauges."""
    out: Dict[str, Dict[str, float]] = {}
    for flat, value in gauges.items():
        name, labels = parse_counter_name(flat)
        if not name.startswith("drift."):
            continue
        obs = dict(labels).get("observable", "-")
        out.setdefault(obs, {})[name[len("drift."):]] = value
    return out


def _gauge_cell(value: Optional[float], fmt: str = "{:.3g}") -> str:
    return "—" if value is None else fmt.format(value)


def _sched_section(events: List[dict], gauges: Dict[str, float]) -> List[str]:
    """Mode-switch timeline from the scheduler's ``cat="sched"`` events.

    Rendered only when an adaptive run contributed events — static
    runs get no empty section.  Returns ``[]`` in that case so the
    caller can skip the heading entirely.
    """
    switches = [
        e.get("args", {})
        for e in events
        if e.get("cat") == "sched" and e.get("name") == "sched.switch"
    ]
    rungs = {
        dict(parse_counter_name(flat)[1]).get("site", "-"): value
        for flat, value in gauges.items()
        if parse_counter_name(flat)[0] == "sched.site_rung"
    }
    if not switches and not rungs:
        return []
    lines: List[str] = ["## Adaptive precision schedule", ""]
    if switches:
        rows = [
            [
                _fmt(a.get("step", 0)),
                f"`{a.get('site', '-')}`",
                f"`{a.get('from_mode', '-')}`",
                f"`{a.get('to_mode', '-')}`",
                a.get("reason", "-"),
                _gauge_cell(a.get("utilization")),
            ]
            for a in switches
        ]
        lines.extend(
            _md_table(
                ["step", "site", "from", "to", "reason", "budget use"], rows
            )
        )
    else:
        lines.append(
            "No mode switches — the run stayed at its starting precision."
        )
    if rungs:
        lines.append("")
        lines.append(
            "Final ladder rungs: "
            + ", ".join(
                f"`{site}`={_fmt(rung)}" for site, rung in sorted(rungs.items())
            )
            + "."
        )
    lines.append("")
    return lines


def _span_table(histograms: Dict[str, dict]) -> List[str]:
    rows = []
    for name, h in sorted(histograms.items()):
        h = _hist_dict(h)
        count = h.get("count", 0)
        total = h.get("total", 0.0)
        mean = total / count if count else 0.0
        hmax = h.get("max") or 0.0
        rows.append(
            [f"`{name}`", _fmt(count), f"{total:.4g}", f"{mean:.4g}", f"{hmax:.4g}"]
        )
    if not rows:
        return ["_No span timings recorded._"]
    return _md_table(["timer", "count", "total s", "mean s", "max s"], rows)


def _counter_table(counters: Dict[str, float], limit: int = 30) -> List[str]:
    rows = [
        (flat, value)
        for flat, value in counters.items()
        if not flat.startswith("blas.site.")
    ]
    if not rows:
        return ["_No counters recorded._"]
    rows.sort(key=lambda kv: kv[1], reverse=True)
    shown = [[f"`{flat}`", _fmt(value)] for flat, value in rows[:limit]]
    lines = _md_table(["counter", "value"], shown)
    if len(rows) > limit:
        lines.append(f"| _... {len(rows) - limit} more counters_ | |")
    return lines


# ----------------------------------------------------------------------
# Top-level rendering.
# ----------------------------------------------------------------------


def render_run_report(data: dict) -> str:
    """Render the markdown report from a normalised trace dict.

    ``data`` has the :func:`repro.telemetry.exporters.read_jsonl`
    shape; missing keys degrade to empty sections, never errors — a
    report from a partial trace is still a report.
    """
    meta = data.get("meta", {}) or {}
    events = data.get("events", []) or []
    counters = data.get("counters", {}) or {}
    gauges = data.get("gauges", {}) or {}
    histograms = data.get("histograms", {}) or {}

    lines: List[str] = ["# Run report", ""]
    created = meta.get("created_unix")
    when = (
        time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime(created))
        if created
        else "unknown"
    )
    n_events = meta.get("n_events", len(events))
    dropped = meta.get("dropped_events", 0)
    lines.append(
        f"Collector started {when} · {_fmt(n_events)} events buffered · "
        f"{_fmt(dropped)} dropped."
    )
    if dropped:
        lines.append(
            "\n> ⚠ events were dropped at the buffer cap; raise "
            "`REPRO_TELEMETRY_MAX_EVENTS` for a complete trace."
        )
    lines.append("")

    lines.append("## Observable drift vs error budget")
    lines.append("")
    lines.extend(_drift_section(events, gauges))
    lines.append("")

    lines.extend(_sched_section(events, gauges))

    lines.append("## BLAS hot call sites")
    lines.append("")
    lines.extend(_site_table(counters))
    lines.append("")

    lines.append("## Backend attribution")
    lines.append("")
    lines.extend(_backend_table(counters))
    lines.append("")

    lines.append("## Phase timings")
    lines.append("")
    lines.extend(_span_table(histograms))
    lines.append("")

    lines.append("## Counters")
    lines.append("")
    lines.extend(_counter_table(counters))
    return "\n".join(lines)


def generate_run_report(
    source: Union[Telemetry, dict, PathLike],
    out_path: Optional[PathLike] = None,
) -> str:
    """Render (and optionally write) a run report.

    ``source`` may be a live collector, a normalised trace dict, or a
    path to a ``trace.jsonl`` written by
    :func:`repro.telemetry.exporters.write_jsonl`.
    """
    if isinstance(source, Telemetry):
        data = data_from_collector(source)
    elif isinstance(source, dict):
        data = source
    else:
        from repro.telemetry.exporters import read_jsonl

        data = read_jsonl(source)
    text = render_run_report(data)
    if out_path is not None:
        out_path = Path(out_path)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text + "\n")
    return text
