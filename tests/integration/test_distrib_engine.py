"""Integration tests for the distributed sweep/ensemble engine.

The contracts pinned here:

* **serial equivalence** — the merged distributed sweep is bitwise
  identical to ``BlasSweep().sweep()`` (the golden test behind the
  ``distrib-serial-equivalence`` claim);
* **checkpoint/resume** — killing every worker mid-run and resuming
  completes the job without recomputing a single completed cell;
* **corruption tolerance** — a torn trailing JSONL record costs one
  cell re-execution, never the run;
* **work-stealing** — an injected straggler's cell is speculatively
  re-issued to the idle worker and the job finishes long before the
  straggler wakes;
* **env propagation** — worker processes re-enter the driver's
  backend/telemetry/precision environment, labels intact.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.blas.modes import set_ozaki_slices
from repro.core.blas_sweep import FIG3B_NORBS, SWEEP_MODES, BlasSweep
from repro.distrib import SweepSpec, WorkQueue, resume, submit

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")


def worker_cmd(queue_dir, worker_id, *extra):
    return [
        sys.executable,
        "-m",
        "repro.distrib.worker",
        "--queue",
        str(queue_dir),
        "--worker-id",
        worker_id,
        *extra,
    ]


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def wait_for(predicate, timeout, poll=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()


class TestSerialEquivalence:
    def test_distributed_sweep_bitwise_equals_serial(self):
        """The golden test: merged points == serial points, exactly."""
        serial = BlasSweep().sweep()
        distributed = BlasSweep().sweep_distributed(n_workers=2)
        assert distributed == serial  # SweepPoint is frozen: field-exact

    def test_inline_drain_also_bitwise_equal(self):
        serial = BlasSweep().sweep(norbs=(256, 1024))
        distributed = BlasSweep().sweep_distributed(
            norbs=(256, 1024), n_workers=3, inline=True
        )
        assert distributed == serial

    def test_merged_artifact_row_for_every_cell(self):
        spec = SweepSpec(
            kind="sweep",
            modes=tuple(m.env_value for m in SWEEP_MODES),
            norbs=FIG3B_NORBS,
            params={"routine": "cgemm"},
        )
        merged = submit(spec, n_workers=2, inline=True).result()
        assert len(merged.cells) == len(SWEEP_MODES) * len(FIG3B_NORBS)
        assert sum(p["cells"] for p in merged.stats.per_worker.values()) >= len(
            merged.cells
        )


class TestKillAndResume:
    def test_kill_mid_run_then_resume_recomputes_nothing(self, tmp_path):
        """SIGKILL every worker mid-job; resume() finishes the rest.

        Zero recomputation is asserted record-by-record: each cell
        completed before the kill keeps exactly its original record
        (same worker, same timestamp), and post-resume records exist
        only for cells that had none.
        """
        spec = SweepSpec(
            kind="synthetic", n_cells=10, params={"cell_seconds": 0.15}
        )
        queue = WorkQueue.create(
            tmp_path / "q", spec, lease_seconds=1.0, steal_after=None
        )
        procs = [
            subprocess.Popen(worker_cmd(queue.root, f"w{i}"), env=worker_env())
            for i in range(2)
        ]
        try:
            assert wait_for(lambda: len(queue.completed_keys()) >= 3, timeout=30)
        finally:
            for p in procs:
                p.send_signal(signal.SIGKILL)
            for p in procs:
                p.wait()
        before = {
            key: (rec["worker"], rec["completed_unix"])
            for key, rec in queue.completed()[0].items()
        }
        assert 0 < len(before) < 10  # genuinely mid-run

        handle = resume(queue.root, n_workers=2)
        merged = handle.result(timeout=60)
        assert len(merged.cells) == 10
        winners, stats = queue.completed()
        for key, (worker, completed_unix) in before.items():
            assert winners[key]["worker"] == worker
            assert winners[key]["completed_unix"] == completed_unix
        # Every pre-kill cell has exactly one record: nothing re-ran.
        records, _ = queue.result_records()
        per_cell = {}
        for rec in records:
            per_cell[rec["cell"]] = per_cell.get(rec["cell"], 0) + 1
        for key in before:
            assert per_cell[key] == 1

    def test_resume_on_complete_queue_is_a_cheap_noop(self, tmp_path):
        spec = SweepSpec(kind="synthetic", n_cells=3, params={"cell_seconds": 0.0})
        first = submit(spec, n_workers=1, queue_dir=tmp_path / "q", inline=True)
        assert first.result().stats.completed == 3
        again = resume(tmp_path / "q", n_workers=2)
        merged = again.result(timeout=30)
        records, _ = again.queue.result_records()
        assert len(records) == 3  # not one cell re-ran


class TestCorruptionRecovery:
    def test_torn_trailing_record_rerun_on_resume(self, tmp_path):
        spec = SweepSpec(kind="synthetic", n_cells=4, params={"cell_seconds": 0.0})
        handle = submit(spec, n_workers=1, queue_dir=tmp_path / "q", inline=True)
        handle.result()
        queue = WorkQueue(tmp_path / "q")
        shard = queue.results_path("inline0")
        text = shard.read_text()
        shard.write_text(text[:-10])  # tear the trailing record
        assert len(queue.completed_keys()) == 3

        merged = resume(tmp_path / "q", n_workers=1, inline=True).result()
        assert len(merged.cells) == 4  # the torn cell re-ran
        assert merged.stats.corrupt_records >= 1  # and the damage is counted

    def test_expired_lease_of_dead_worker_retaken(self, tmp_path):
        spec = SweepSpec(kind="synthetic", n_cells=2, params={"cell_seconds": 0.0})
        queue = WorkQueue.create(tmp_path / "q", spec, lease_seconds=0.2)
        # A "dead worker" left a lease behind and wrote nothing.
        assert queue.try_claim(0, "dead").status == "claimed"
        time.sleep(0.3)
        merged = resume(queue.root, n_workers=1, inline=True).result()
        assert len(merged.cells) == 2
        assert merged.stats.lease_takeovers >= 1


class TestWorkStealing:
    def test_straggler_cell_stolen_by_idle_worker(self, tmp_path):
        """An injected straggler must not serialise the job.

        w0 stalls 60 s on cell 0 while its heartbeat keeps the lease
        alive — lease expiry can never recover it.  w1 drains the rest,
        goes idle, and steals cell 0 after ``steal_after``; the job
        completes in a fraction of the stall (the generous margin keeps
        the bound meaningful even on a loaded single-core runner).
        """
        spec = SweepSpec(kind="synthetic", n_cells=4, params={"cell_seconds": 0.1})
        queue = WorkQueue.create(
            tmp_path / "q", spec, lease_seconds=120.0, steal_after=0.3
        )
        stall = subprocess.Popen(
            worker_cmd(
                queue.root,
                "w0",
                "--stall-key",
                "synthetic:",  # w0 stalls on whichever cell it claims
                "--stall-seconds",
                "60",
                "--max-cells",
                "1",
            ),
            env=worker_env(),
        )
        # Hold w1 back until the straggler owns a lease, so the
        # injection cannot be raced away.
        assert wait_for(
            lambda: bool(list((queue.root / "leases").glob("cell-*.json"))),
            timeout=30,
        )
        helper = subprocess.Popen(
            worker_cmd(queue.root, "w1"), env=worker_env()
        )
        t0 = time.monotonic()
        try:
            assert wait_for(queue.all_done, timeout=45)
            elapsed = time.monotonic() - t0
        finally:
            for p in (stall, helper):
                p.send_signal(signal.SIGKILL)
                p.wait()
        assert elapsed < 45.0  # finished despite the 60 s straggler
        winners, stats = queue.completed()
        stolen = [rec for rec in winners.values() if rec["stolen"]]
        assert len(stolen) == 1  # exactly the straggler's cell
        assert stolen[0]["worker"] == "w1"
        assert stats.steals >= 1

    def test_steal_disabled_means_no_speculation(self, tmp_path):
        spec = SweepSpec(kind="synthetic", n_cells=4, params={"cell_seconds": 0.0})
        queue = WorkQueue.create(tmp_path / "q", spec, steal_after=None)
        merged = resume(queue.root, n_workers=2, inline=True).result()
        assert merged.stats.steals == 0
        assert merged.stats.duplicates == 0


@pytest.mark.telemetry
class TestEnvPropagation:
    def test_worker_processes_reenter_driver_env(self, tmp_path):
        """Probe cells report the state each worker actually restored:
        telemetry on, the driver's Ozaki slice count, drift on, the
        driver's scoped compute mode — despite none of it being
        exported to os.environ here."""
        from repro.blas.modes import compute_mode
        from repro.telemetry import registry
        from repro.telemetry.drift import set_drift_enabled

        collector = registry.enable()
        set_ozaki_slices(2)
        set_drift_enabled(True)
        try:
            spec = SweepSpec(kind="probe", n_cells=4)
            with compute_mode("FLOAT_TO_TF32"):
                handle = submit(spec, n_workers=2, queue_dir=tmp_path / "q")
            merged = handle.result(timeout=60)
        finally:
            set_drift_enabled(None)
            set_ozaki_slices(None)
            registry.disable()
        assert len(merged.cells) == 4
        pids = set()
        for payload in merged.cells.values():
            assert payload["backend"] == "numpy"
            assert payload["ozaki_slices"] == 2
            assert payload["telemetry"] is True
            assert payload["drift"] is True
            assert payload["mode"] == "FLOAT_TO_TF32"
            pids.add(payload["pid"])
        assert os.getpid() not in pids  # genuinely ran out-of-process

    def test_cell_telemetry_streams_back_with_labels(self, tmp_path):
        """Every winning cell's counters merge into the driver's
        collector — each probe runs one 16x16 sgemm, so ``blas.calls``
        must come back labelled with routine and backend."""
        from repro.telemetry import registry

        collector = registry.enable()
        try:
            spec = SweepSpec(kind="probe", n_cells=3)
            merged = submit(spec, n_workers=2, queue_dir=tmp_path / "q").result(
                timeout=60
            )
        finally:
            registry.disable()
        assert merged.telemetry_merged == 3
        assert (
            collector.counter_value(
                "blas.calls", routine="sgemm", site="-", mode="STANDARD",
                backend="numpy",
            )
            == 3
        )
        assert collector.counter_total("distrib.cells") == 3
        assert collector.counter_total("distrib.worker_seconds") > 0

    @pytest.mark.skipif(
        not pytest.importorskip("importlib.util").find_spec("torch"),
        reason="torch not installed",
    )
    def test_torch_backend_propagates_to_workers(self, tmp_path):
        from repro.blas.backend import use_backend

        with use_backend("torch-cpu"):
            spec = SweepSpec(kind="probe", n_cells=2)
            merged = submit(spec, n_workers=2, queue_dir=tmp_path / "q").result(
                timeout=60
            )
        for payload in merged.cells.values():
            assert payload["backend"] == "torch-cpu"


class TestDistributedStudy:
    @pytest.mark.slow
    def test_distributed_study_bitwise_equals_serial(self):
        import numpy as np

        from repro.blas.modes import ComputeMode
        from repro.core.study import PAPER_STUDY_MODES, PrecisionStudy
        from repro.dcmesh.simulation import SimulationConfig

        modes = PAPER_STUDY_MODES[:2]
        study = PrecisionStudy(
            SimulationConfig.small_test(n_qd_steps=8, nscf=4), modes=modes
        )
        serial = study.run()
        dist = study.run_distributed(n_workers=2)
        for mode in (ComputeMode.STANDARD, *modes):
            for obs in ("nexc", "javg", "ekin"):
                assert np.array_equal(
                    serial.results[mode].column(obs).astype(np.float64),
                    dist.column(obs, mode),
                )

    def test_custom_laser_refused_not_silently_wrong(self):
        from repro.core.study import run_distributed_study
        from repro.dcmesh.simulation import LaserPulse, SimulationConfig

        config = SimulationConfig.small_test(laser=LaserPulse(amplitude=9.0))
        with pytest.raises(ValueError, match="laser"):
            run_distributed_study(config, inline=True)
