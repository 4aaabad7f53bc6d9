"""Live error-budget drift monitoring (the drift observatory).

The paper's accuracy argument — how far nexc/ekin/javg wander under
each BLAS compute mode — is established today *post hoc*: run the
trajectory, diff it against an FP32 reference, plot.  ROADMAP item 2
(an adaptive precision scheduler) needs the same information *while
the run is in flight*, so a policy can escalate BF16 -> BF16x2 -> FP32
before the budget is spent rather than after.

:class:`DriftMonitor` is that live view.  The MD driver
(:meth:`repro.dcmesh.simulation.Simulation.run`) feeds it one
:class:`~repro.dcmesh.observables.QDRecord` per QD step; when a
:class:`ReferenceTrajectory` is attached the monitor computes the
running deviation per observable (the same quantity
:class:`repro.core.deviation.DeviationSeries` reports offline),
normalises it against an :class:`ErrorBudget` envelope derived from
:func:`repro.core.error_budget.per_step_state_error`, and

* maintains ``drift.budget_utilization{observable}`` gauges on the
  installed telemetry collector,
* emits ``drift.sample`` events (cat ``drift``) so the run report can
  reconstruct the whole series offline,
* fires **threshold-crossing alerts** — ``warn`` at 80 % of budget,
  ``breach`` at 100 % — exactly once per (observable, level), as
  ``drift.alert`` instant events plus ``drift.alerts{observable,level}``
  counters.

Without a reference (the ambient ``--drift-budget`` / ``REPRO_DRIFT=1``
mode) the monitor records the observable series and gauges only; there
is nothing to deviate *from*, so no alerts fire.

Import discipline: this module is imported by the BLAS/propagation hot
path's neighbours (``dcmesh.simulation`` / ``dcmesh.propagate``), and
``core.deviation`` imports ``dcmesh.simulation`` — so everything from
``repro.core`` is imported lazily inside methods, never at module
scope.  The only top-level imports are numpy, the standard library,
:mod:`repro.context` (which holds the ambient monitor) and
:mod:`repro.telemetry.registry`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import context as _context
from repro.telemetry.registry import active as _telemetry_active

__all__ = [
    "DRIFT_ENV",
    "DRIFT_OBSERVABLES",
    "ErrorBudget",
    "ReferenceTrajectory",
    "DriftSample",
    "DriftAlert",
    "DriftMonitor",
    "drift_enabled",
    "set_drift_enabled",
    "install_drift_monitor",
    "active_drift_monitor",
    "drift_monitoring",
]

#: ``REPRO_DRIFT=1`` enables ambient drift monitoring with no source
#: changes, mirroring ``REPRO_TELEMETRY`` (see registry.py).
DRIFT_ENV = "REPRO_DRIFT"

#: The Fig. 1 observables the monitor tracks.  Mirrors
#: ``repro.core.deviation.OBSERVABLES`` (not imported: cycle hazard).
DRIFT_OBSERVABLES = ("nexc", "javg", "ekin")

#: Default alert thresholds as fractions of the budget envelope.
WARN_AT = 0.8
BREACH_AT = 1.0


# ----------------------------------------------------------------------
# Budget envelope.
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ErrorBudget:
    """Allowed relative deviation as a function of QD step.

    ``envelope(step) = per_step * headroom * step ** exponent``.

    ``per_step`` is the §V-B per-application relative error
    (:func:`repro.core.error_budget.per_step_state_error`);
    ``exponent`` models how injections accumulate (1.0 = coherent
    worst case, 0.5 = random walk); ``headroom`` is the multiplier
    separating "expected" from "alarming".
    """

    per_step: float
    exponent: float = 1.0
    headroom: float = 1.0

    def __post_init__(self) -> None:
        if self.per_step < 0 or self.headroom <= 0:
            raise ValueError("per_step must be >= 0 and headroom > 0")

    def envelope(self, step: int) -> float:
        """Budgeted relative deviation at ``step`` (0 at step 0)."""
        if step <= 0:
            return 0.0
        return self.per_step * self.headroom * float(step) ** self.exponent

    @classmethod
    def for_mode(
        cls,
        mode,
        dt: float,
        h_nl_norm: float,
        exponent: float = 1.0,
        headroom: float = 1.0,
    ) -> "ErrorBudget":
        """Budget from the analytic per-step bound for ``mode``.

        Lazy import: ``core.error_budget`` transitively imports the
        simulation driver.
        """
        from repro.blas.modes import resolve_mode
        from repro.core.error_budget import per_step_state_error

        per_step = per_step_state_error(resolve_mode(mode), dt, h_nl_norm)
        return cls(per_step=per_step, exponent=exponent, headroom=headroom)

    @classmethod
    def from_fit(cls, fit, headroom: float = 1.0) -> "ErrorBudget":
        """Budget from a measured :class:`repro.core.error_budget.DriftFit`.

        The fitted power law *is* the envelope: ``amplitude`` plays the
        per-step role, ``exponent`` carries over.
        """
        return cls(
            per_step=float(fit.amplitude),
            exponent=float(fit.exponent),
            headroom=headroom,
        )


# ----------------------------------------------------------------------
# Reference trajectory.
# ----------------------------------------------------------------------


class ReferenceTrajectory:
    """Per-step observable values of a prior (reference) run.

    Indexed by QD step number, so a monitored run may start mid-way
    (resume) or stop early and still line up sample-for-sample.
    """

    def __init__(self, steps, columns: Dict[str, np.ndarray]):
        steps = np.asarray(steps, dtype=int)
        self._index = {int(s): i for i, s in enumerate(steps)}
        self._columns = {k: np.asarray(v, dtype=float) for k, v in columns.items()}
        for name, col in self._columns.items():
            if col.shape != steps.shape:
                raise ValueError(
                    f"column {name!r} has shape {col.shape}, steps {steps.shape}"
                )

    @classmethod
    def from_result(cls, result) -> "ReferenceTrajectory":
        """Build from a :class:`~repro.dcmesh.simulation.SimulationResult`."""
        return cls(
            result.column("step"),
            {obs: result.column(obs) for obs in DRIFT_OBSERVABLES},
        )

    @classmethod
    def from_records(cls, records) -> "ReferenceTrajectory":
        """Build from a list of :class:`~repro.dcmesh.observables.QDRecord`."""
        return cls(
            [r.step for r in records],
            {obs: [getattr(r, obs) for r in records] for obs in DRIFT_OBSERVABLES},
        )

    def value(self, observable: str, step: int) -> Optional[float]:
        """Reference value at ``step``, or None if the step is unknown."""
        i = self._index.get(int(step))
        if i is None:
            return None
        col = self._columns.get(observable)
        return None if col is None else float(col[i])

    def __len__(self) -> int:
        return len(self._index)


# ----------------------------------------------------------------------
# Samples and alerts.
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DriftSample:
    """One observable at one QD step, with its deviation accounting."""

    step: int
    time_fs: float
    observable: str
    value: float
    deviation: Optional[float] = None       #: |value - reference|
    relative: Optional[float] = None        #: deviation / |reference|
    utilization: Optional[float] = None     #: relative / budget envelope


@dataclasses.dataclass(frozen=True)
class DriftAlert:
    """A threshold crossing: ``level`` is ``"warn"`` or ``"breach"``."""

    level: str
    observable: str
    step: int
    time_fs: float
    utilization: float
    relative: float
    envelope: float


class DriftMonitor:
    """Samples observables per QD step and polices the error budget.

    Parameters
    ----------
    mode:
        Compute mode of the monitored run (labels gauges and events).
    budget:
        The :class:`ErrorBudget` envelope.  May be attached later via
        :meth:`set_budget` / :meth:`set_budget_for_mode` — the MD
        driver derives it from the first SCF block's ``||H_nl||``.
    reference:
        A :class:`ReferenceTrajectory` to deviate against.  Without
        one the monitor records values only and never alerts.
    warn_at, breach_at:
        Alert thresholds as fractions of the envelope.
    """

    def __init__(
        self,
        mode=None,
        budget: Optional[ErrorBudget] = None,
        reference: Optional[ReferenceTrajectory] = None,
        warn_at: float = WARN_AT,
        breach_at: float = BREACH_AT,
        observables: Tuple[str, ...] = DRIFT_OBSERVABLES,
    ):
        if not (0.0 < warn_at <= breach_at):
            raise ValueError("need 0 < warn_at <= breach_at")
        self.mode = mode
        self.budget = budget
        self.reference = reference
        self.warn_at = float(warn_at)
        self.breach_at = float(breach_at)
        self.observables = tuple(observables)
        self.samples: Dict[str, List[DriftSample]] = {o: [] for o in self.observables}
        self.alerts: List[DriftAlert] = []
        self.qd_steps = 0
        self.latch_resets = 0
        self._fired: set = set()
        self._lock = threading.Lock()

    # -- configuration -------------------------------------------------

    def set_budget(self, budget: ErrorBudget) -> None:
        self.budget = budget

    def set_budget_for_mode(
        self, mode, dt: float, h_nl_norm: float, headroom: float = 1.0
    ) -> ErrorBudget:
        """Derive and attach the analytic budget for ``mode``."""
        self.budget = ErrorBudget.for_mode(mode, dt, h_nl_norm, headroom=headroom)
        return self.budget

    def reset_alert_latches(self, step: Optional[int] = None) -> int:
        """Re-arm the once-per-(observable, level) alert latches.

        Called at SCF boundaries: the FP64 SCF update re-anchors the
        state, so a breach *after* the reset is new information — with
        the latches left set it would be silently swallowed, which is
        exactly the blind spot the adaptive scheduler's demotion logic
        cannot afford.  Returns the number of latches cleared and emits
        ``drift.latch_resets`` so resets are visible in the run report.
        """
        with self._lock:
            cleared = len(self._fired)
            self._fired.clear()
            self.latch_resets += 1
        if cleared:
            t = _telemetry_active()
            if t is not None:
                t.count("drift.latch_resets")
                t.instant(
                    "drift.latch_reset",
                    cat="drift",
                    cleared=cleared,
                    step=-1 if step is None else int(step),
                    mode=self.mode_label,
                )
        return cleared

    def current_utilization(self) -> Optional[float]:
        """Max budget utilization over the latest sample per observable.

        The scheduler's control signal: ``None`` when no referenced,
        budgeted sample exists yet; ``inf`` propagates (a zero envelope
        with nonzero deviation is maximally urgent).
        """
        worst = None
        with self._lock:
            for obs in self.observables:
                samples = self.samples[obs]
                if not samples:
                    continue
                u = samples[-1].utilization
                if u is None:
                    continue
                if worst is None or u > worst:
                    worst = u
        return worst

    @property
    def mode_label(self) -> str:
        m = self.mode
        if m is None:
            return "-"
        return getattr(m, "env_value", None) or str(m)

    # -- hot-path hooks ------------------------------------------------

    def note_qd_step(self, t_au: float) -> None:
        """Cheap per-QD-step tick from :class:`LFDPropagator`.

        Keeps an independent step count so the monitor can tell when a
        propagation step produced no observation (a driver bug the
        observe/step counts would silently mask otherwise).
        """
        self.qd_steps += 1

    def observe(self, record) -> List[DriftAlert]:
        """Ingest one QD record; returns any alerts it triggered."""
        fired: List[DriftAlert] = []
        t = _telemetry_active()
        for obs in self.observables:
            value = float(getattr(record, obs))
            sample = self._build_sample(obs, record.step, record.time_fs, value)
            with self._lock:
                self.samples[obs].append(sample)
            if t is not None:
                self._publish_sample(t, sample)
            if sample.utilization is not None:
                fired.extend(self._check_thresholds(t, sample))
        return fired

    def _build_sample(
        self, obs: str, step: int, time_fs: float, value: float
    ) -> DriftSample:
        ref_value = (
            self.reference.value(obs, step) if self.reference is not None else None
        )
        if ref_value is None:
            return DriftSample(step=step, time_fs=time_fs, observable=obs, value=value)
        deviation = abs(value - ref_value)
        relative = deviation / max(abs(ref_value), np.finfo(np.float64).tiny)
        utilization = None
        if self.budget is not None:
            env = self.budget.envelope(step)
            utilization = relative / env if env > 0.0 else (0.0 if relative == 0.0 else np.inf)
        return DriftSample(
            step=step,
            time_fs=time_fs,
            observable=obs,
            value=value,
            deviation=deviation,
            relative=relative,
            utilization=None if utilization is None else float(utilization),
        )

    def _publish_sample(self, t, s: DriftSample) -> None:
        t.count("drift.samples", observable=s.observable)
        args = {
            "observable": s.observable,
            "step": s.step,
            "time_fs": s.time_fs,
            "value": s.value,
            "mode": self.mode_label,
        }
        if s.deviation is not None:
            args.update(deviation=s.deviation, relative=s.relative)
            t.gauge("drift.deviation", s.deviation, observable=s.observable)
        if s.utilization is not None and np.isfinite(s.utilization):
            args["utilization"] = s.utilization
            t.gauge("drift.budget_utilization", s.utilization, observable=s.observable)
        t.instant("drift.sample", cat="drift", **args)

    def _check_thresholds(self, t, s: DriftSample) -> List[DriftAlert]:
        fired: List[DriftAlert] = []
        env = self.budget.envelope(s.step) if self.budget is not None else 0.0
        for level, threshold in (("breach", self.breach_at), ("warn", self.warn_at)):
            key = (s.observable, level)
            if s.utilization < threshold or key in self._fired:
                continue
            self._fired.add(key)
            alert = DriftAlert(
                level=level,
                observable=s.observable,
                step=s.step,
                time_fs=s.time_fs,
                utilization=float(s.utilization),
                relative=float(s.relative),
                envelope=float(env),
            )
            with self._lock:
                self.alerts.append(alert)
            fired.append(alert)
            if t is not None:
                t.count("drift.alerts", observable=s.observable, level=level)
                t.instant(
                    "drift.alert",
                    cat="drift",
                    level=level,
                    observable=s.observable,
                    step=s.step,
                    utilization=alert.utilization,
                    relative=alert.relative,
                    envelope=alert.envelope,
                    mode=self.mode_label,
                )
        return fired

    # -- offline views -------------------------------------------------

    def breaches(self) -> List[DriftAlert]:
        return [a for a in self.alerts if a.level == "breach"]

    def warnings(self) -> List[DriftAlert]:
        return [a for a in self.alerts if a.level == "warn"]

    def deviation_series(self, observable: str):
        """The samples as a :class:`repro.core.deviation.DeviationSeries`.

        Only available when a reference was attached (otherwise there
        is no deviation to report).  Lazy import — see module docstring.
        """
        from repro.core.deviation import DeviationSeries

        samples = [s for s in self.samples[observable] if s.deviation is not None]
        if not samples:
            raise ValueError(
                f"no referenced samples for {observable!r} (reference attached?)"
            )
        ref = np.array(
            [self.reference.value(observable, s.step) for s in samples], dtype=float
        )
        return DeviationSeries(
            observable=observable,
            mode=self.mode,
            time_fs=np.array([s.time_fs for s in samples]),
            deviation=np.array([s.deviation for s in samples]),
            reference=ref,
        )

    def fit(self, observable: str):
        """Power-law drift fit over this run's deviations (or None).

        Needs at least 5 samples (the step-0 zero is skipped by
        :func:`repro.core.error_budget.fit_drift`).
        """
        from repro.core.error_budget import fit_drift

        devs = [
            s.deviation
            for s in self.samples.get(observable, [])
            if s.deviation is not None
        ]
        if len(devs) < 5:
            return None
        try:
            return fit_drift(devs)
        except (ValueError, np.linalg.LinAlgError):
            return None

    def summary(self) -> dict:
        """JSON-friendly digest (the run report's drift section)."""
        per_obs = {}
        for obs in self.observables:
            samples = self.samples[obs]
            refd = [s for s in samples if s.utilization is not None]
            finite = [s.utilization for s in refd if np.isfinite(s.utilization)]
            fit = self.fit(obs)
            per_obs[obs] = {
                "samples": len(samples),
                "final_value": samples[-1].value if samples else None,
                "max_deviation": max(
                    (s.deviation for s in samples if s.deviation is not None),
                    default=None,
                ),
                "max_utilization": max(finite, default=None),
                "fit": None
                if fit is None
                else {
                    "amplitude": fit.amplitude,
                    "exponent": fit.exponent,
                    "r_squared": fit.r_squared,
                },
            }
        return {
            "mode": self.mode_label,
            "qd_steps": self.qd_steps,
            "latch_resets": self.latch_resets,
            "budget": None
            if self.budget is None
            else dataclasses.asdict(self.budget),
            "observables": per_obs,
            "alerts": [dataclasses.asdict(a) for a in self.alerts],
        }

    def finalize(self) -> dict:
        """Publish the end-of-run digest to the telemetry collector."""
        summary = self.summary()
        t = _telemetry_active()
        if t is not None:
            for obs, row in summary["observables"].items():
                if row["max_utilization"] is not None:
                    t.gauge(
                        "drift.max_utilization", row["max_utilization"], observable=obs
                    )
                if row["fit"] is not None:
                    t.gauge("drift.fit.exponent", row["fit"]["exponent"], observable=obs)
                    t.gauge(
                        "drift.fit.amplitude", row["fit"]["amplitude"], observable=obs
                    )
            t.instant(
                "drift.summary",
                cat="drift",
                mode=summary["mode"],
                qd_steps=summary["qd_steps"],
                alerts=len(summary["alerts"]),
            )
        return summary


# ----------------------------------------------------------------------
# Ambient installation (the --drift-budget / REPRO_DRIFT path).
# ----------------------------------------------------------------------

_enabled_override: Optional[bool] = None


def drift_enabled() -> bool:
    """Whether ambient drift monitoring is requested.

    Priority: :func:`set_drift_enabled` override, then the
    ``REPRO_DRIFT`` environment variable.
    """
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get(DRIFT_ENV, "").strip() not in ("", "0")


def set_drift_enabled(enabled: Optional[bool]) -> None:
    """Force ambient drift monitoring on/off (None = defer to env)."""
    global _enabled_override
    _enabled_override = None if enabled is None else bool(enabled)


def install_drift_monitor(monitor: Optional[DriftMonitor]) -> Optional[DriftMonitor]:
    """Install ``monitor`` as the ambient monitor of this execution
    context; returns the previous one."""
    return _context.update(drift_monitor=monitor).drift_monitor


def active_drift_monitor() -> Optional[DriftMonitor]:
    """The ambient monitor of this execution context, if installed."""
    return _context.current().drift_monitor


@contextlib.contextmanager
def drift_monitoring(
    monitor: Optional[DriftMonitor] = None, **kwargs
) -> Iterator[DriftMonitor]:
    """Scope with an ambient drift monitor installed.

    >>> with drift_monitoring(reference=ref, budget=budget) as dm:
    ...     sim.run(mode="FLOAT_TO_BF16")
    >>> dm.breaches()
    """
    dm = monitor if monitor is not None else DriftMonitor(**kwargs)
    with _context.scoped(drift_monitor=dm):
        yield dm
