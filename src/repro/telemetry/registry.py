"""Unified metrics-and-tracing registry for the BLAS + LFD pipeline.

The paper extracts every per-call number (Tables VI/VII, Fig. 3b) from
``MKL_VERBOSE=2`` interception logs; this module generalises that
mechanism into one low-overhead telemetry substrate shared by the whole
reproduction:

* **monotonic counters** — label-keyed (``blas.calls{routine=cgemm,
  site=nlp_prop}``), for call counts, cache hits/misses, bytes, flops;
* **histograms** — streaming count/total/min/max plus logarithmic
  buckets, for per-call and per-span durations;
* **span timers** — context-managed phase timings (QD step, SCF block,
  mode sweep) recorded as Chrome ``trace_event``-compatible events.

The design constraint is the *disabled* path: the LFD hot loop issues
three GEMMs per QD step and every instrumentation site is on that path.
When telemetry is off, :func:`active` returns ``None`` from a single
module-global read, so a hook is one function call, one ``is not None``
test, and **zero allocations** (guarded by
``tests/unit/test_telemetry.py::test_disabled_path_allocates_nothing``).
All aggregation cost is paid only while a collector is installed.

Enable programmatically (:func:`enable` / the :func:`telemetry` scope)
or via the environment variable ``REPRO_TELEMETRY`` — the same
no-source-change contract as ``MKL_BLAS_COMPUTE_MODE`` and
``MKL_VERBOSE``.

The :mod:`repro.blas.verbose` MKL-look-alike log is a *consumer* of the
same per-call event stream (see :func:`repro.blas.verbose.emit_call`):
one emission feeds both the ``VerboseRecord`` log and this registry,
so the two can never disagree about what ran.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.telemetry.provenance import call_site_id
from repro.types import ROUTINES

__all__ = [
    "TELEMETRY_ENV",
    "MAX_EVENTS",
    "MAX_EVENTS_ENV",
    "Histogram",
    "Telemetry",
    "active",
    "telemetry_enabled",
    "enable",
    "disable",
    "telemetry",
    "format_counter_name",
    "parse_counter_name",
]

#: Environment variable that installs a collector at import time.
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Environment variable overriding the event-buffer cap (an integer;
#: invalid or non-positive values fall back to the default).
MAX_EVENTS_ENV = "REPRO_TELEMETRY_MAX_EVENTS"

_DEFAULT_MAX_EVENTS = 1_000_000


def _max_events_from_env() -> int:
    """The event-buffer cap, honouring ``REPRO_TELEMETRY_MAX_EVENTS``."""
    raw = os.environ.get(MAX_EVENTS_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            return _DEFAULT_MAX_EVENTS
        if value > 0:
            return value
    return _DEFAULT_MAX_EVENTS


#: Hard cap on buffered trace events (default 1,000,000, configurable
#: via ``REPRO_TELEMETRY_MAX_EVENTS``).  Beyond it new events are
#: counted in :attr:`Telemetry.dropped_events` and the
#: ``telemetry.events_dropped`` counter instead of stored, so a very
#: long run degrades to counters-only rather than exhausting memory.
MAX_EVENTS = _max_events_from_env()

#: Histogram bucket upper bounds, seconds (log-spaced 1 us .. 10 s).
BUCKET_BOUNDS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Histogram:
    """Streaming summary of one metric: count/total/min/max + buckets."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(BUCKET_BOUNDS):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        """JSON-safe form (used by the JSONL exporter round trip)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": list(self.buckets),
            "bounds": list(BUCKET_BOUNDS),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        h = cls()
        h.count = int(data["count"])
        h.total = float(data["total"])
        h.min = float("inf") if data["min"] is None else float(data["min"])
        h.max = float("-inf") if data["max"] is None else float(data["max"])
        h.buckets = [int(b) for b in data["buckets"]]
        return h


def _label_key(labels: dict) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label(text: str) -> str:
    """Backslash-escape the characters the rendered form reserves."""
    for ch in ("\\", "{", "}", "=", ","):
        text = text.replace(ch, "\\" + ch)
    return text


def format_counter_name(name: str, labels: Tuple[Tuple[str, str], ...]) -> str:
    """Render ``name{k=v,...}`` the way the summary table prints it.

    Label keys and values are backslash-escaped (``\\`` ``{`` ``}``
    ``=`` ``,``) so the rendering is unambiguous — and invertible by
    :func:`parse_counter_name` — whatever the labels contain.  Normal
    identifiers render exactly as before.
    """
    if not labels:
        return name
    inner = ",".join(f"{_escape_label(k)}={_escape_label(v)}" for k, v in labels)
    return f"{name}{{{inner}}}"


def parse_counter_name(rendered: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """Inverse of :func:`format_counter_name`.

    Returns ``(name, labels)`` with labels in rendered (sorted) order.
    The run-report generator uses this to regroup the flat counter
    names a JSONL trace stores.
    """
    if not rendered.endswith("}") or "{" not in rendered:
        return rendered, ()
    brace = rendered.index("{")
    name, inner = rendered[:brace], rendered[brace + 1 : -1]
    labels = []
    key, buf, escaped = None, [], False
    for ch in inner:
        if escaped:
            buf.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == "=" and key is None:
            key, buf = "".join(buf), []
        elif ch == ",":
            labels.append((key or "", "".join(buf)))
            key, buf = None, []
        else:
            buf.append(ch)
    labels.append((key or "", "".join(buf)))
    return name, tuple(labels)


class Telemetry:
    """One collector: counters, histograms, and a trace-event buffer.

    Thread-safe: all mutation happens under one lock.  The intended
    lifetime is one run/experiment — install with :func:`enable` or the
    :func:`telemetry` context manager, export with
    :mod:`repro.telemetry.exporters`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        self.created_at = time.time()
        #: (name, labels) -> monotonic value
        self.counters: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
        #: (name, labels) -> last set value (non-monotonic)
        self.gauges: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.events: List[dict] = []
        self.dropped_events = 0

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        """Seconds since the collector was created (trace timebase)."""
        return time.perf_counter() - self._t0

    # -- metrics -------------------------------------------------------

    def count(self, name: str, n: float = 1.0, **labels) -> None:
        """Add ``n`` to the monotonic counter ``name`` (label-keyed)."""
        key = (name, _label_key(labels))
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + n

    def counter_value(self, name: str, **labels) -> float:
        """Current value of one counter series (0 if never touched)."""
        with self._lock:
            return self.counters.get((name, _label_key(labels)), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of one counter across all label sets."""
        with self._lock:
            return sum(v for (n, _), v in self.counters.items() if n == name)

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins).

        Gauges carry levels rather than totals — the drift monitor's
        budget-utilization readings are the canonical use.
        """
        key = (name, _label_key(labels))
        with self._lock:
            self.gauges[key] = float(value)

    def gauge_value(self, name: str, **labels) -> Optional[float]:
        """Current value of one gauge series (``None`` if never set)."""
        with self._lock:
            return self.gauges.get((name, _label_key(labels)))

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    # -- events --------------------------------------------------------

    def _append_event(self, event: dict) -> None:
        with self._lock:
            if len(self.events) >= MAX_EVENTS:
                # Not a silent cap: the drop is visible both as the
                # attribute and as a first-class counter series (the
                # lock is held, so mutate the dict directly).
                self.dropped_events += 1
                key = ("telemetry.events_dropped", ())
                self.counters[key] = self.counters.get(key, 0.0) + 1.0
                return
            self.events.append(event)

    def instant(self, name: str, cat: str = "app", **args) -> None:
        """Record a point-in-time event."""
        self._append_event(
            {"name": name, "cat": cat, "ph": "i", "ts": self.now(), "args": args}
        )

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "app", **args) -> Iterator[None]:
        """Time a phase: emits one complete (``ph: X``) trace event and
        feeds the ``span.<name>`` duration histogram."""
        start = self.now()
        try:
            yield
        finally:
            dur = self.now() - start
            self._append_event(
                {
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    "ts": start,
                    "dur": dur,
                    "args": args,
                }
            )
            self.observe(f"span.{name}", dur)

    # -- the BLAS per-call stream -------------------------------------

    def blas_call(self, rec) -> None:
        """Ingest one BLAS call record (duck-typed
        :class:`repro.blas.verbose.VerboseRecord`).

        This is the telemetry half of the unified event stream: the
        verbose log keeps the record object, we keep counters plus a
        trace event carrying every field needed to reconstruct the
        record (see :meth:`verbose_records`).
        """
        mode = getattr(rec.mode, "env_value", str(rec.mode))
        backend = getattr(rec, "backend", "numpy") or "numpy"
        self.count(
            "blas.calls",
            routine=rec.routine,
            site=rec.site or "-",
            mode=mode,
            backend=backend,
        )
        self.count("blas.flops", rec.flops, routine=rec.routine)
        dtype = ROUTINES.get(rec.routine)
        itemsize = 8 if dtype is None else dtype.itemsize
        nbytes = itemsize * (rec.m * rec.k + rec.k * rec.n + rec.m * rec.n)
        self.count("blas.bytes", nbytes, routine=rec.routine)
        self.observe("blas.seconds", rec.seconds)
        # Per-backend wall attribution: the run report and the pareto
        # experiment split emulation time by executing backend.
        self.count("blas.backend.calls", backend=backend)
        self.count("blas.backend.seconds", rec.seconds, backend=backend)
        if rec.model_seconds is not None:
            self.observe("blas.model_seconds", rec.model_seconds)
        # Per-call-site provenance: stable ID keyed series, the basis of
        # the run report's hot-site table.
        site_id = getattr(rec, "site_id", "") or call_site_id(
            rec.site, rec.routine, rec.m, rec.n, rec.k
        )
        self.count("blas.site.calls", site_id=site_id)
        self.count("blas.site.flops", rec.flops, site_id=site_id)
        self.count("blas.site.bytes", nbytes, site_id=site_id)
        self.count("blas.site.seconds", rec.seconds, site_id=site_id)
        if rec.model_seconds is not None:
            self.count("blas.site.model_seconds", rec.model_seconds, site_id=site_id)
        ts = self.now() - rec.seconds
        self._append_event(
            {
                "name": rec.routine,
                "cat": "blas",
                "ph": "X",
                "ts": ts if ts > 0.0 else 0.0,
                "dur": rec.seconds,
                "args": {
                    "trans_a": rec.trans_a,
                    "trans_b": rec.trans_b,
                    "m": rec.m,
                    "n": rec.n,
                    "k": rec.k,
                    "mode": mode,
                    "site": rec.site,
                    "site_id": site_id,
                    "model_seconds": rec.model_seconds,
                    "backend": backend,
                },
            }
        )

    def device_kernel(self, event) -> None:
        """Record one kernel booked on a modelled device (duck-typed
        :class:`repro.gpu.timeline.KernelEvent`).

        A complete ``cat="device"`` event on the *device* clock: ``ts``
        is the kernel's modelled start and ``dur`` its modelled
        seconds.  The Chrome exporter draws these as a second process
        beside the measured spans.
        """
        self._append_event(
            {
                "name": event.name,
                "cat": "device",
                "ph": "X",
                "ts": event.start,
                "dur": event.duration,
                "args": {"kind": event.kind, "site": event.site},
            }
        )

    def blas_events(self) -> List[dict]:
        """All buffered BLAS per-call events, in emission order."""
        with self._lock:
            return [e for e in self.events if e.get("cat") == "blas"]

    def verbose_records(self) -> list:
        """Rebuild :class:`~repro.blas.verbose.VerboseRecord` objects
        from the buffered BLAS events — the proof that the MKL-style
        log is derivable from this stream alone."""
        from repro.blas.modes import ComputeMode
        from repro.blas.verbose import VerboseRecord

        records = []
        for e in self.blas_events():
            a = e["args"]
            records.append(
                VerboseRecord(
                    routine=e["name"],
                    trans_a=a["trans_a"],
                    trans_b=a["trans_b"],
                    m=a["m"],
                    n=a["n"],
                    k=a["k"],
                    mode=ComputeMode.parse(a["mode"]),
                    seconds=e["dur"],
                    model_seconds=a["model_seconds"],
                    site=a["site"],
                    site_id=a.get("site_id", ""),
                    backend=a.get("backend", "numpy"),
                )
            )
        return records

    # -- snapshots -----------------------------------------------------

    def counters_flat(self) -> Dict[str, float]:
        """Counters as ``{"name{k=v}": value}`` (stable sorted keys)."""
        with self._lock:
            items = list(self.counters.items())
        return {
            format_counter_name(name, labels): value
            for (name, labels), value in sorted(items)
        }

    def gauges_flat(self) -> Dict[str, float]:
        """Gauges as ``{"name{k=v}": value}`` (stable sorted keys)."""
        with self._lock:
            items = list(self.gauges.items())
        return {
            format_counter_name(name, labels): value
            for (name, labels), value in sorted(items)
        }

    def snapshot(self) -> dict:
        """JSON-safe summary of everything the collector holds."""
        with self._lock:
            hists = {name: h.to_dict() for name, h in sorted(self.histograms.items())}
            n_events = len(self.events)
            dropped = self.dropped_events
        return {
            "counters": self.counters_flat(),
            "gauges": self.gauges_flat(),
            "histograms": hists,
            "n_events": n_events,
            "dropped_events": dropped,
        }


# ----------------------------------------------------------------------
# Module-global installation: the disabled fast path is one global read.
# ----------------------------------------------------------------------

_state_lock = threading.Lock()
_active: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The installed collector, or ``None`` when telemetry is off.

    This is *the* hot-path guard: call sites do
    ``t = active()`` / ``if t is not None: t.count(...)`` so the
    disabled path performs no allocation and no locking.
    """
    return _active


def telemetry_enabled() -> bool:
    """Whether a collector is currently installed."""
    return _active is not None


def enable(collector: Optional[Telemetry] = None) -> Telemetry:
    """Install ``collector`` (or a fresh one) process-wide; returns it."""
    global _active
    with _state_lock:
        _active = collector if collector is not None else Telemetry()
        return _active


def disable() -> Optional[Telemetry]:
    """Uninstall and return the current collector (``None`` if off)."""
    global _active
    with _state_lock:
        prev = _active
        _active = None
        return prev


def _set_active(collector: Optional[Telemetry]) -> None:
    global _active
    with _state_lock:
        _active = collector


@contextlib.contextmanager
def telemetry(out_dir=None) -> Iterator[Telemetry]:
    """Scoped telemetry: install a fresh collector, yield it, restore
    the previous state on exit.

    ``out_dir`` (optional) exports the JSONL trace, the Chrome trace
    and the text summary there on exit — the one-liner the experiment
    runner's ``--telemetry`` flag builds on.
    """
    prev = _active
    collector = enable()
    try:
        yield collector
    finally:
        _set_active(prev)
        if out_dir is not None:
            from repro.telemetry.exporters import export_all

            export_all(collector, out_dir)


# Honour the environment contract at import, like MKL_VERBOSE.
if os.environ.get(TELEMETRY_ENV, "").strip() not in ("", "0"):
    enable()
