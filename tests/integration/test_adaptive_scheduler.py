"""Integration: closed-loop adaptive precision scheduling end to end.

A live adaptive run on the small lattice, monitored against the FP32
reference, must escalate out of BF16 (the start rung), leave the drift
inside the fixed budget, record its switches in telemetry, and render
an "Adaptive precision schedule" section into the run report.
"""

import pytest

from repro.core.scheduler import AdaptiveScheduler, set_adaptive_enabled
from repro.dcmesh.simulation import Simulation, SimulationConfig
from repro.telemetry import registry
from repro.telemetry.drift import (
    DriftMonitor,
    ReferenceTrajectory,
    install_drift_monitor,
    set_drift_enabled,
)
from repro.telemetry.report import generate_run_report

pytestmark = pytest.mark.telemetry

N_STEPS = 30
NSCF = 10


@pytest.fixture(scope="module")
def sim():
    simulation = Simulation(
        SimulationConfig.small_test(n_qd_steps=N_STEPS, nscf=NSCF)
    )
    simulation.setup()
    return simulation


@pytest.fixture(scope="module")
def reference(sim):
    result = sim.run(mode="STANDARD", drift=False)
    return result, ReferenceTrajectory.from_result(result)


@pytest.fixture(autouse=True)
def _clean():
    prev = registry.disable()
    prev_dm = install_drift_monitor(None)
    set_drift_enabled(None)
    set_adaptive_enabled(None)
    yield
    registry.disable()
    install_drift_monitor(prev_dm)
    set_drift_enabled(None)
    set_adaptive_enabled(None)
    if prev is not None:
        registry.enable(prev)


class TestClosedLoop:
    def test_adaptive_run_escalates_and_holds_budget(self, sim, reference):
        ref_result, ref = reference
        sched = AdaptiveScheduler()
        dm = DriftMonitor(reference=ref)

        t = registry.enable()
        result = sim.run(adaptive=sched, drift=dm)
        registry.disable()

        assert result.scheduler is sched
        summary = sched.summary()

        # The loop reacted: at least one site left the BF16 start rung.
        assert summary["escalations"] >= 1
        assert any(
            mode != sched.ladder[0].env_value
            for mode in summary["final_modes"].values()
        )
        # Every breach was answered with headroom to escalate into.
        assert summary["unhandled_breaches"] == 0

        # Closed-loop accuracy: strictly better than an uncontrolled
        # static run at the start rung.
        static_bf16 = sim.run(mode="FLOAT_TO_BF16", drift=False)
        ref_nexc = ref_result.column("nexc")[-1]
        adaptive_err = abs(result.column("nexc")[-1] - ref_nexc)
        static_err = abs(static_bf16.column("nexc")[-1] - ref_nexc)
        assert adaptive_err < static_err

        # Decisions surfaced in telemetry...
        switch_events = [e for e in t.events if e.get("name") == "sched.switch"]
        assert len(switch_events) == len(summary["switches"])
        assert t.gauge_value("sched.site_rung", site="nlp_prop") is not None
        # ...and in the run report.
        report = generate_run_report(t)
        assert "## Adaptive precision schedule" in report
        assert "Final ladder rungs" in report

    def test_collector_does_not_steer_the_schedule(self, sim, reference):
        # Telemetry observes a run, it never decides one: the same
        # adaptive run with and without a collector installed makes the
        # same switches, warn-driven ones included, and ends in the
        # same state, bit for bit.
        _, ref = reference
        runs = []
        for collect in (False, True):
            if collect:
                registry.enable()
            sched = AdaptiveScheduler()
            result = sim.run(adaptive=sched, drift=DriftMonitor(reference=ref))
            registry.disable()
            runs.append((sched.switches, result.final_psi.tobytes()))
        assert any(sw.reason == "warn" for sw in runs[0][0])
        assert runs[1][0] == runs[0][0]
        assert runs[1][1] == runs[0][1]

    def test_scf_boundaries_rearm_alert_latches(self, sim, reference):
        _, ref = reference
        dm = DriftMonitor(reference=ref)
        sim.run(adaptive=AdaptiveScheduler(), drift=dm)
        # One reset per completed SCF block.
        assert dm.latch_resets == N_STEPS // NSCF

    def test_ambient_enablement_attaches_a_scheduler(self, sim):
        set_adaptive_enabled(True)
        result = sim.run()
        assert result.scheduler is not None
        assert result.scheduler.clamp is None

    def test_explicit_mode_with_unclamped_scheduler_rejected(self, sim):
        with pytest.raises(ValueError, match="adaptive"):
            sim.run(mode="FLOAT_TO_BF16", adaptive=AdaptiveScheduler())

    def test_adaptive_false_never_schedules(self, sim):
        set_adaptive_enabled(True)
        result = sim.run(adaptive=False)
        assert result.scheduler is None
