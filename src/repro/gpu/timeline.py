"""Kernel event timeline — the unitrace substrate.

The paper measures end-to-end GPU time with unitrace's "Total L0 Time"
(GPU-side Level Zero timers) and per-kernel breakdowns.  The modelled
device appends a :class:`KernelEvent` per launched kernel; the
timeline can then answer the same queries the authors put to unitrace:
total device time and per-kernel-name aggregation.

While a telemetry collector is installed, every booked kernel is also
recorded there (:meth:`repro.telemetry.Telemetry.device_kernel`), so the
collector's Chrome trace shows the modelled device beside the measured
spans.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import defaultdict
from typing import Dict, List

from repro.telemetry.registry import active as _telemetry_active

__all__ = ["KernelEvent", "Timeline"]

#: Serialises the read-then-advance of every timeline's clock: workers
#: started with repro.context.fan_out book into their caller's device.
#: One module lock keeps Timeline (and a Device holding it) picklable.
_append_lock = threading.Lock()


@dataclasses.dataclass(frozen=True)
class KernelEvent:
    """One modelled kernel execution on the device."""

    name: str           #: kernel identity, e.g. ``"cgemm"`` or ``"stencil_apply"``
    start: float        #: device-clock start time, seconds
    duration: float     #: modelled execution time, seconds
    kind: str = ""      #: coarse category: ``"blas"`` / ``"app"`` / ``"copy"``
    site: str = ""      #: application function that issued it

    @property
    def end(self) -> float:
        return self.start + self.duration


class Timeline:
    """Append-only device timeline with unitrace-style aggregation."""

    def __init__(self) -> None:
        self._events: List[KernelEvent] = []
        self._clock = 0.0

    def __len__(self) -> int:
        return len(self._events)

    @property
    def events(self) -> List[KernelEvent]:
        return list(self._events)

    @property
    def clock(self) -> float:
        """Current device-clock position, seconds."""
        return self._clock

    def append(self, name: str, duration: float, kind: str = "", site: str = "") -> KernelEvent:
        """Record a kernel of ``duration`` seconds; advances the clock."""
        if duration < 0:
            raise ValueError(f"negative kernel duration: {duration}")
        with _append_lock:
            event = KernelEvent(
                name=name, start=self._clock, duration=duration, kind=kind, site=site
            )
            self._events.append(event)
            self._clock += duration
            collector = _telemetry_active()
            if collector is not None:
                collector.device_kernel(event)
        return event

    def reset(self) -> None:
        """Clear all events and rewind the clock."""
        self._events.clear()
        self._clock = 0.0

    # ------------------------------------------------------------------
    # unitrace-style queries
    # ------------------------------------------------------------------

    def total_l0_time(self) -> float:
        """Sum of all kernel durations — unitrace's headline number."""
        return sum(e.duration for e in self._events)

    def time_by_name(self) -> Dict[str, float]:
        """Aggregate device time per kernel name."""
        agg: Dict[str, float] = defaultdict(float)
        for e in self._events:
            agg[e.name] += e.duration
        return dict(agg)

    def time_by_kind(self) -> Dict[str, float]:
        """Aggregate device time per coarse category."""
        agg: Dict[str, float] = defaultdict(float)
        for e in self._events:
            agg[e.kind or "?"] += e.duration
        return dict(agg)
