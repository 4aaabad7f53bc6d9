"""Exporters for a :class:`repro.telemetry.Telemetry` collector.

Three output forms, all derived from the same registry state:

* **JSONL event trace** (:func:`write_jsonl` / :func:`read_jsonl`) —
  one JSON object per line: a ``meta`` header, every buffered trace
  event, then the final counter and histogram values.  Machine-first;
  the reader reassembles exactly what the writer saw (round-trip
  guaranteed by ``tests/unit/test_telemetry_export.py``).
* **Chrome ``trace_event`` JSON** (:func:`write_chrome_trace`) — the
  standard ``{"traceEvents": [...]}`` object with microsecond
  timestamps, loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev.  Measured events form one process with a
  lane per category; kernels booked on a modelled device
  (``cat="device"``, on the device clock) form a second process,
  "modelled device", with a lane per kernel kind.
* **plain-text summary** (:func:`summary_table`) — counters and span
  statistics as an aligned table for terminals and CI logs.

:func:`export_all` writes all three into a directory; the experiment
runner's ``--telemetry DIR`` flag and the :func:`repro.telemetry.telemetry`
context manager both call it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Union

from repro.telemetry.registry import Histogram, Telemetry

__all__ = [
    "write_jsonl",
    "read_jsonl",
    "write_chrome_trace",
    "read_chrome_trace",
    "summary_table",
    "export_all",
]

PathLike = Union[str, Path]

JSONL_VERSION = 1

#: Stable Chrome-trace tid per event category, one lane each.
_CAT_LANES = {"blas": 1, "lfd": 2, "scf": 3, "sweep": 4, "app": 5}

#: Stable tid per modelled-device kernel kind, one lane each.
_KIND_LANES = {"blas": 1, "app": 2, "copy": 3}


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------


def write_jsonl(collector: Telemetry, path: PathLike) -> Path:
    """Write the full collector state as a JSONL event trace."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    snap = collector.snapshot()
    meta = {
        "type": "meta",
        "version": JSONL_VERSION,
        "created_unix": collector.created_at,
        "written_unix": time.time(),
        "n_events": snap["n_events"],
        "dropped_events": snap["dropped_events"],
    }
    lines = [json.dumps(meta)]
    for event in list(collector.events):
        lines.append(json.dumps({"type": "event", **event}))
    for name, value in snap["counters"].items():
        lines.append(json.dumps({"type": "counter", "name": name, "value": value}))
    for name, value in snap.get("gauges", {}).items():
        lines.append(json.dumps({"type": "gauge", "name": name, "value": value}))
    for name, hist in snap["histograms"].items():
        lines.append(json.dumps({"type": "histogram", "name": name, **hist}))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_jsonl(path: PathLike) -> dict:
    """Parse a JSONL trace back into its constituent parts.

    Returns ``{"meta": dict, "events": [dict], "counters": {name:
    value}, "gauges": {name: value}, "histograms": {name: Histogram}}``
    — the exact inverse of :func:`write_jsonl` over the exported state.
    An undecodable or unknown-typed line raises ``ValueError``.
    """
    meta: dict = {}
    events: List[dict] = []
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Histogram] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ValueError(f"JSONL record is not an object: {obj!r}")
        kind = obj.pop("type")
        if kind == "meta":
            meta = obj
        elif kind == "event":
            events.append(obj)
        elif kind == "counter":
            counters[obj["name"]] = obj["value"]
        elif kind == "gauge":
            gauges[obj["name"]] = obj["value"]
        elif kind == "histogram":
            histograms[obj.pop("name")] = Histogram.from_dict(obj)
        else:
            raise ValueError(f"unknown JSONL record type {kind!r}")
    return {
        "meta": meta,
        "events": events,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------


def _process_meta(pid: int, name: str, lanes: Dict[str, int]) -> List[dict]:
    out = [{"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}]
    for lane, tid in sorted(lanes.items(), key=lambda kv: kv[1]):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": lane},
            }
        )
    return out


def chrome_trace_events(collector: Telemetry, pid: int = 1) -> List[dict]:
    """Convert buffered events to Chrome Trace Event dicts.

    Measured events go to process ``pid``; modelled-device kernels
    (``cat="device"``) to process ``pid + 1``, laned by kernel kind.
    """
    device_pid = pid + 1
    out = _process_meta(pid, "repro.telemetry", _CAT_LANES)
    out += _process_meta(device_pid, "modelled device", _KIND_LANES)
    for event in list(collector.events):
        if event.get("cat") == "device":
            event_pid = device_pid
            tid = _KIND_LANES.get(event["args"].get("kind"), 0)
        else:
            event_pid = pid
            tid = _CAT_LANES.get(event.get("cat", "app"), 0)
        converted = {
            "name": event["name"],
            "cat": event.get("cat", "app"),
            "ph": event.get("ph", "i"),
            "ts": event["ts"] * 1e6,  # seconds -> microseconds
            "pid": event_pid,
            "tid": tid,
            "args": {k: v for k, v in event.get("args", {}).items() if v is not None},
        }
        if event.get("ph") == "X":
            converted["dur"] = event["dur"] * 1e6
        out.append(converted)
    return out


def write_chrome_trace(collector: Telemetry, path: PathLike, pid: int = 1) -> Path:
    """Write the event buffer as a Chrome/Perfetto-loadable trace."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "traceEvents": chrome_trace_events(collector, pid=pid),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload))
    return path


def read_chrome_trace(path: PathLike) -> dict:
    """Load a Chrome trace file written by :func:`write_chrome_trace`."""
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# Text summary
# ----------------------------------------------------------------------


def summary_table(collector: Telemetry) -> str:
    """Aligned text rendering of counters and span statistics."""
    snap = collector.snapshot()
    lines = ["== telemetry summary =="]
    counters = snap["counters"]
    if counters:
        width = max(len(name) for name in counters)
        lines.append("")
        lines.append(f"{'counter':<{width}}  value")
        for name, value in counters.items():
            rendered = f"{value:.6g}" if value != int(value) else f"{int(value)}"
            lines.append(f"{name:<{width}}  {rendered}")
    gauges = snap.get("gauges", {})
    if gauges:
        width = max(len(name) for name in gauges)
        lines.append("")
        lines.append(f"{'gauge':<{width}}  value")
        for name, value in gauges.items():
            lines.append(f"{name:<{width}}  {value:.6g}")
    hists = snap["histograms"]
    if hists:
        width = max(len(name) for name in hists)
        lines.append("")
        lines.append(
            f"{'timer/histogram':<{width}}  {'count':>8}  {'total':>12}  "
            f"{'mean':>12}  {'max':>12}"
        )
        for name, h in hists.items():
            count = h["count"]
            mean = h["total"] / count if count else 0.0
            hmax = h["max"] if h["max"] is not None else 0.0
            lines.append(
                f"{name:<{width}}  {count:>8}  {h['total']:>12.6f}  "
                f"{mean:>12.6f}  {hmax:>12.6f}"
            )
    lines.append("")
    lines.append(
        f"events: {snap['n_events']} buffered, {snap['dropped_events']} dropped"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# One-call export
# ----------------------------------------------------------------------


def export_all(collector: Telemetry, out_dir: PathLike) -> Dict[str, Path]:
    """Write all run artifacts into ``out_dir``.

    Returns ``{"jsonl": ..., "chrome": ..., "summary": ..., "report":
    ...}`` paths; ``report`` is the human-first ``run_report.md``
    rendered by :mod:`repro.telemetry.report`.
    """
    from repro.telemetry.report import data_from_collector, render_run_report

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "jsonl": write_jsonl(collector, out_dir / "trace.jsonl"),
        "chrome": write_chrome_trace(collector, out_dir / "trace.chrome.json"),
        "summary": out_dir / "summary.txt",
        "report": out_dir / "run_report.md",
    }
    paths["summary"].write_text(summary_table(collector) + "\n")
    paths["report"].write_text(render_run_report(data_from_collector(collector)) + "\n")
    return paths
