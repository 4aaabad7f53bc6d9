"""Adaptive precision scheduler: closed-loop mode escalation.

The paper compares five *static* ``MKL_BLAS_COMPUTE_MODE`` settings
and leaves per-call-site mixing to future work (Section IV-D).  This
module closes the loop the drift observatory (PR 5) opened: run every
call site at the cheapest mode, watch the live budget utilization the
:class:`~repro.telemetry.drift.DriftMonitor` computes each QD step,
and escalate only the sites whose drift approaches the budget —
maximum speed at a *fixed* accuracy contract instead of a fixed mode.

Controller design
-----------------

* **Ladder** — the candidate modes, ordered by *decreasing analytic
  error* (:func:`repro.core.error_model.mode_effective_error`), by
  default ``BF16 -> TF32 -> BF16X2 -> OZAKI_INT8 -> FP32 ->
  EMULATED_FP64``.  Note TF32 sits *below* BF16X2: a single
  10-bit-mantissa product (``~2^-11`` effective) is less accurate than
  the two-term BF16 compensated split (``~2^-16``), even though the
  paper's hardware runs it faster.  The Ozaki INT8 split (``~2^-20``
  at three slices) lands between BF16X2 and FP32, and emulated FP64
  (``~2^-52``) tops the ladder.  Escalation must be monotone in
  accuracy or a breach could escalate into a *worse* mode and loop.
* **Escalation** — at each QD step the scheduler reads the monitor's
  current budget utilization (max over nexc/javg/ekin).  Crossing
  ``escalate_at`` (default 0.7, i.e. before the monitor's own 0.8
  warn) promotes *one* site — the first in the fixed order
  ``nlp_prop > calc_energy > remap_occ`` (state-mutating first) that
  has served its minimum dwell time.  The order does not depend on
  whether a telemetry collector is installed: telemetry observes a
  run, it never steers one.  An actual budget **breach** promotes
  *every* site one rung immediately, ignoring dwell.
* **Demotion** — only at SCF boundaries: the FP64 QXMD update
  re-anchors the state, so that is the one point where relaxing
  precision cannot compound an existing drift.  A block that stayed
  below ``demote_below`` (default 0.2) with zero alerts demotes every
  site one rung.  The wide gap between 0.2 and 0.7 is the hysteresis
  band that prevents thrash.
* **Budget** — the accuracy contract is a *fixed* envelope derived
  from ``budget_mode`` (default ``FLOAT_TO_BF16X2``), not from
  whatever mode happens to be active: "as fast as possible while
  staying within the BF16X2-grade envelope".

Fast-path discipline: the scheduler owns a mutable
:class:`~repro.blas.policy.AdaptiveSitePolicy`; per-GEMM cost is one
policy-pointer read (``policy.mode_for(site)``).  All decisions happen
at step/SCF boundaries.  Escalations re-use already-prepared split
plans via the prefix-extension path in
:meth:`repro.blas.plan.PreparedOperand.split_stack`.

Import discipline: imported by ``dcmesh.simulation`` — nothing from
``repro.core`` that transitively imports the simulation driver may be
imported at module scope (``error_model`` only needs ``blas.gemm``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.blas.modes import ComputeMode
from repro.blas.policy import AdaptiveSitePolicy
from repro.core.error_model import mode_effective_error
from repro.telemetry.registry import active as _telemetry_active

__all__ = [
    "ADAPTIVE_ENV",
    "SCHED_SITES",
    "DEFAULT_LADDER",
    "SchedulerConfig",
    "ModeSwitch",
    "AdaptiveScheduler",
    "adaptive_enabled",
    "set_adaptive_enabled",
]

#: ``REPRO_ADAPTIVE=1`` enables the ambient scheduler with no source
#: changes (mirrors ``REPRO_DRIFT`` / ``REPRO_TELEMETRY``).
ADAPTIVE_ENV = "REPRO_ADAPTIVE"

#: The LFD call sites under scheduler control, in the default
#: warn-escalation order: the state-mutating propagation first, then
#: the observable-only energy and occupation sites.
SCHED_SITES = ("nlp_prop", "calc_energy", "remap_occ")

#: Candidate modes, kept in increasing-accuracy order by
#: :func:`_sort_ladder` (see module docstring for why TF32 < BF16X2).
#: ``OZAKI_INT8`` (``~2^-20`` at three slices) slots between BF16X2 and
#: FP32; ``EMULATED_FP64`` (``~2^-52``) is the top rung — the escape
#: hatch when even FP32 accumulation cannot hold the budget.
DEFAULT_LADDER = (
    ComputeMode.FLOAT_TO_BF16,
    ComputeMode.FLOAT_TO_BF16X2,
    ComputeMode.FLOAT_TO_TF32,
    ComputeMode.OZAKI_INT8,
    ComputeMode.STANDARD,
    ComputeMode.EMULATED_FP64,
)


def _sort_ladder(modes: Sequence[Union[str, ComputeMode]]) -> Tuple[ComputeMode, ...]:
    """Order ``modes`` by decreasing analytic error (escalation order)."""
    parsed = [ComputeMode.parse(m) for m in modes]
    if len(set(parsed)) != len(parsed):
        raise ValueError(f"ladder has duplicate modes: {parsed}")
    return tuple(sorted(parsed, key=mode_effective_error, reverse=True))


@dataclasses.dataclass(frozen=True)
class SchedulerConfig:
    """Tuning knobs of the closed loop (see module docstring)."""

    #: Utilization fraction above which one site is promoted.
    escalate_at: float = 0.7
    #: Block-max utilization below which a quiet block demotes.
    demote_below: float = 0.2
    #: Minimum QD steps between warn-driven promotions of one site
    #: (breaches ignore it).
    min_dwell_steps: int = 5
    #: Mode whose analytic envelope *is* the accuracy contract.
    budget_mode: Union[str, ComputeMode] = ComputeMode.FLOAT_TO_BF16X2
    #: Envelope headroom multiplier passed to the budget derivation.
    budget_headroom: float = 4.0
    #: Candidate modes (re-sorted by decreasing analytic error).
    ladder: Tuple[Union[str, ComputeMode], ...] = DEFAULT_LADDER
    #: Sites under control, in warn-escalation priority order.
    sites: Tuple[str, ...] = SCHED_SITES

    def __post_init__(self) -> None:
        if not (0.0 < self.demote_below < self.escalate_at <= 1.0):
            raise ValueError(
                "need 0 < demote_below < escalate_at <= 1 "
                f"(got {self.demote_below}, {self.escalate_at})"
            )
        if self.min_dwell_steps < 0:
            raise ValueError("min_dwell_steps must be >= 0")
        if len(self.ladder) < 2:
            raise ValueError("ladder needs at least two modes")


@dataclasses.dataclass(frozen=True)
class ModeSwitch:
    """One scheduler decision, as recorded in the switch timeline."""

    step: int
    site: str
    from_mode: ComputeMode
    to_mode: ComputeMode
    reason: str                #: ``"warn"`` | ``"breach"`` | ``"scf_reset"``
    utilization: Optional[float]

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "site": self.site,
            "from": self.from_mode.env_value,
            "to": self.to_mode.env_value,
            "reason": self.reason,
            "utilization": self.utilization,
        }


class AdaptiveScheduler:
    """Closed-loop per-site precision controller.

    Usage (the :meth:`repro.dcmesh.simulation.Simulation.run`
    ``adaptive=`` parameter does all of this)::

        sched = AdaptiveScheduler()
        with sched.policy.active():
            ... per QD step:    sched.on_step(step, monitor)
            ... per SCF block:  sched.on_scf_boundary(step, monitor)

    ``clamp`` pins every site (and the policy default, so the FP64
    phase's complex calls resolve identically too) to one mode and
    disables all decisions — the identity-test configuration: a
    clamped scheduler must be bitwise-indistinguishable from the
    corresponding static-mode run.
    """

    def __init__(
        self,
        config: Optional[SchedulerConfig] = None,
        clamp: Union[str, ComputeMode, None] = None,
    ):
        self.config = config or SchedulerConfig()
        self.ladder = _sort_ladder(self.config.ladder)
        self.clamp = None if clamp is None else ComputeMode.parse(clamp)
        self.budget_mode = ComputeMode.parse(self.config.budget_mode)
        start = self.clamp if self.clamp is not None else self.ladder[0]
        self._rung: Dict[str, int] = {
            s: (self.ladder.index(start) if start in self.ladder else 0)
            for s in self.config.sites
        }
        self.policy = AdaptiveSitePolicy(
            {s: start for s in self.config.sites},
            default=self.clamp,
        )
        self.switches: List[ModeSwitch] = []
        self.escalations = 0
        self.demotions = 0
        self.breaches_seen = 0
        self.unhandled_breaches = 0
        self._last_switch: Dict[str, int] = {s: -(10**9) for s in self.config.sites}
        self._alert_cursor = 0
        self._block_max_util: Optional[float] = None
        self._block_alerts = 0
        self._publish_rungs()

    # -- introspection -------------------------------------------------

    def site_modes(self) -> Dict[str, ComputeMode]:
        """Current mode of every controlled site."""
        if self.clamp is not None:
            return {s: self.clamp for s in self._rung}
        return {s: self.ladder[r] for s, r in self._rung.items()}

    def mode_for(self, site: str) -> ComputeMode:
        if self.clamp is not None:
            return self.clamp
        return self.ladder[self._rung[site]]

    @contextlib.contextmanager
    def scope(self) -> Iterator["AdaptiveScheduler"]:
        """Install this scheduler's policy for the with-block."""
        with self.policy.active():
            yield self

    # -- control inputs ------------------------------------------------

    def on_step(self, step: int, monitor=None) -> List[ModeSwitch]:
        """Per-QD-step decision point (call after ``monitor.observe``).

        Returns the switches made this step (usually none — the common
        case is a single utilization read and two comparisons).
        """
        if self.clamp is not None or monitor is None:
            return []
        util = monitor.current_utilization()
        new_alerts = monitor.alerts[self._alert_cursor:]
        self._alert_cursor = len(monitor.alerts)
        self._block_alerts += len(new_alerts)
        if util is not None and (
            self._block_max_util is None or util > self._block_max_util
        ):
            self._block_max_util = util
        breached = any(a.level == "breach" for a in new_alerts)
        made: List[ModeSwitch] = []
        if breached:
            self.breaches_seen += 1
            # A spent budget is not a tuning signal, it is an accuracy
            # failure in progress: promote everything at once.
            for site in self.config.sites:
                sw = self._escalate(site, step, "breach", util, ignore_dwell=True)
                if sw is not None:
                    made.append(sw)
            if not made:
                # Already at the top of the ladder everywhere — the
                # contract cannot be restored by switching modes.
                self.unhandled_breaches += 1
        elif util is not None and util >= self.config.escalate_at:
            for site in self.config.sites:
                sw = self._escalate(site, step, "warn", util)
                if sw is not None:
                    made.append(sw)
                    break
        return made

    def on_scf_boundary(self, step: int, monitor=None) -> List[ModeSwitch]:
        """SCF-block decision point (call *before* the latch reset,
        so the block's alert count is still visible here)."""
        made: List[ModeSwitch] = []
        if self.clamp is None:
            quiet = self._block_alerts == 0 and (
                self._block_max_util is None
                or self._block_max_util < self.config.demote_below
            )
            if quiet:
                # The FP64 update re-anchored the state; a quiet block
                # earns one rung of relaxation everywhere.
                for site in self.config.sites:
                    sw = self._demote(site, step, "scf_reset", self._block_max_util)
                    if sw is not None:
                        made.append(sw)
        self._block_max_util = None
        self._block_alerts = 0
        return made

    # -- decision internals --------------------------------------------

    def _escalate(
        self,
        site: str,
        step: int,
        reason: str,
        util: Optional[float],
        ignore_dwell: bool = False,
    ) -> Optional[ModeSwitch]:
        rung = self._rung[site]
        if rung >= len(self.ladder) - 1:
            return None
        if not ignore_dwell and (
            step - self._last_switch[site] < self.config.min_dwell_steps
        ):
            return None
        self.escalations += 1
        return self._switch(site, rung + 1, step, reason, util)

    def _demote(
        self, site: str, step: int, reason: str, util: Optional[float]
    ) -> Optional[ModeSwitch]:
        rung = self._rung[site]
        if rung <= 0:
            return None
        self.demotions += 1
        return self._switch(site, rung - 1, step, reason, util)

    def _switch(
        self, site: str, new_rung: int, step: int, reason: str, util: Optional[float]
    ) -> ModeSwitch:
        old = self.ladder[self._rung[site]]
        new = self.ladder[new_rung]
        self._rung[site] = new_rung
        self._last_switch[site] = step
        self.policy.set_mode(site, new)
        sw = ModeSwitch(
            step=step, site=site, from_mode=old, to_mode=new,
            reason=reason, utilization=None if util is None else float(util),
        )
        self.switches.append(sw)
        t = _telemetry_active()
        if t is not None:
            direction = "up" if new_rung > self.ladder.index(old) else "down"
            t.count("sched.switches", site=site, direction=direction)
            t.gauge("sched.site_rung", new_rung, site=site)
            t.instant(
                "sched.switch",
                cat="sched",
                site=site,
                from_mode=old.env_value,
                to_mode=new.env_value,
                step=step,
                reason=reason,
                utilization=sw.utilization,
            )
        return sw

    def _publish_rungs(self) -> None:
        t = _telemetry_active()
        if t is not None:
            for site, rung in self._rung.items():
                t.gauge("sched.site_rung", rung, site=site)

    # -- offline view --------------------------------------------------

    def summary(self) -> dict:
        """JSON-friendly digest for results, benchmarks and reports."""
        return {
            "ladder": [m.env_value for m in self.ladder],
            "clamp": None if self.clamp is None else self.clamp.env_value,
            "budget_mode": self.budget_mode.env_value,
            "escalate_at": self.config.escalate_at,
            "demote_below": self.config.demote_below,
            "min_dwell_steps": self.config.min_dwell_steps,
            "final_modes": {s: m.env_value for s, m in self.site_modes().items()},
            "escalations": self.escalations,
            "demotions": self.demotions,
            "breaches_seen": self.breaches_seen,
            "unhandled_breaches": self.unhandled_breaches,
            "switches": [s.as_dict() for s in self.switches],
        }


# ----------------------------------------------------------------------
# Ambient enablement (the --adaptive / REPRO_ADAPTIVE path).
# ----------------------------------------------------------------------

_enabled_override: Optional[bool] = None


def adaptive_enabled() -> bool:
    """Whether ambient adaptive scheduling is requested.

    Priority: :func:`set_adaptive_enabled` override, then the
    ``REPRO_ADAPTIVE`` environment variable.
    """
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get(ADAPTIVE_ENV, "").strip() not in ("", "0")


def set_adaptive_enabled(enabled: Optional[bool]) -> None:
    """Force ambient adaptive scheduling on/off (None = defer to env)."""
    global _enabled_override
    _enabled_override = None if enabled is None else bool(enabled)
