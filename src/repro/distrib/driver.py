"""The async driver API: ``submit(spec) -> JobHandle`` and the merge.

``submit`` snapshots the ambient settings, materialises a queue
directory, launches local worker processes (plain ``sys.executable -m
repro.distrib.worker`` subprocesses — the exact command a multi-host
launch would run remotely), and returns immediately with a
:class:`JobHandle`.  ``status()`` polls the shards, ``wait()`` blocks
on completion, ``result()`` merges.

``resume`` is the same handle over an existing queue directory:
completion state lives only in the results shards, so a resumed run
skips completed cells (they already have records), re-leases expired
ones, and never recomputes — pinned by
``tests/integration/test_distrib_engine.py``.

The merge is driver-side and pure: first completion per cell key wins,
stolen/duplicate executions are discarded, per-shard attribution comes
out as ``distrib.*`` counters, and winning cells' telemetry streams
replay into the installed collector so one ``run_report.md`` covers
the whole pool.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.context import snapshot
from repro.distrib.cells import SweepSpec
from repro.distrib.collector import distrib_counters, merge_cell_telemetry
from repro.distrib.queue import DEFAULT_LEASE_SECONDS, ShardStats, WorkQueue

__all__ = [
    "IncompleteJobError",
    "JobStatus",
    "MergedResult",
    "JobHandle",
    "submit",
    "resume",
    "merge_results",
]


class IncompleteJobError(RuntimeError):
    """``result()`` was asked for before every cell completed."""


@dataclasses.dataclass(frozen=True)
class JobStatus:
    """A point-in-time view of a job's progress."""

    total: int
    completed: int
    running_workers: int

    @property
    def done(self) -> bool:
        return self.completed >= self.total


@dataclasses.dataclass
class MergedResult:
    """The first-completion-wins merge of a completed queue."""

    spec: SweepSpec
    #: cell key -> result payload (the dict the cell body returned)
    cells: Dict[str, dict]
    stats: ShardStats
    telemetry_merged: int = 0

    def in_manifest_order(self) -> List[dict]:
        """Result payloads in the spec's canonical cell order."""
        return [self.cells[c.key] for c in self.spec.cells()]

    def sweep_points(self) -> list:
        """Reconstruct ``BlasSweep.sweep``'s return value, bit for bit.

        The serial sweep returns points n_orb-major / mode-minor; a
        single-seed ``sweep`` spec's manifest order is exactly that,
        so reconstruction is a straight map over
        :meth:`in_manifest_order`.  Floats survive the queue's JSON
        round-trip exactly, which is what makes the rebuilt points
        ``==`` the serial ones (the ``distrib-serial-equivalence``
        claim).
        """
        if self.spec.kind != "sweep":
            raise ValueError(f"not a sweep job (kind={self.spec.kind!r})")
        from repro.blas.modes import ComputeMode
        from repro.core.blas_sweep import SweepPoint

        return [
            SweepPoint(
                n_orb=payload["n_orb"],
                mode=ComputeMode.parse(payload["mode"]),
                m=payload["m"],
                n=payload["n"],
                k=payload["k"],
                fp32_seconds=payload["fp32_seconds"],
                mode_seconds=payload["mode_seconds"],
            )
            for payload in self.in_manifest_order()
        ]


def merge_results(queue: WorkQueue, ingest_telemetry: bool = True) -> MergedResult:
    """Merge a fully-completed queue into one :class:`MergedResult`.

    Raises :class:`IncompleteJobError` while cells are outstanding.
    When a collector is installed (and ``ingest_telemetry``), the
    winning cells' telemetry streams and the ``distrib.*`` attribution
    counters are replayed into it.
    """
    winners, stats = queue.completed()
    missing = len(queue.cells) - len(winners)
    if missing:
        raise IncompleteJobError(
            f"{missing} of {len(queue.cells)} cells incomplete in {queue.root}"
        )
    merged = MergedResult(
        spec=queue.spec,
        cells={key: rec["result"] for key, rec in winners.items()},
        stats=stats,
    )
    if ingest_telemetry:
        from repro.telemetry.registry import active as _telemetry_active

        collector = _telemetry_active()
        if collector is not None:
            records, corrupt = queue.telemetry_records()
            stats.corrupt_records += corrupt
            merged.telemetry_merged = merge_cell_telemetry(
                collector, records, winners
            )
            distrib_counters(collector, stats)
    return merged


class JobHandle:
    """A submitted (or resumed) distributed job."""

    def __init__(self, queue: WorkQueue, procs: Optional[List] = None):
        self.queue = queue
        self.procs = list(procs or [])
        self._result: Optional[MergedResult] = None

    @property
    def queue_dir(self) -> Path:
        return self.queue.root

    def status(self) -> JobStatus:
        return JobStatus(
            total=len(self.queue.cells),
            completed=len(self.queue.completed_keys()),
            running_workers=sum(1 for p in self.procs if p.poll() is None),
        )

    def wait(self, timeout: Optional[float] = None, poll: float = 0.1) -> JobStatus:
        """Block until every cell completes (or ``timeout`` elapses).

        Completion is judged from the shards, not the worker
        processes: a job finishes even if some workers were killed, as
        long as others (or a resume) drained the queue.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status()
            if status.done:
                return status
            if status.running_workers == 0 and self.procs:
                # Every local worker exited with cells outstanding —
                # report instead of spinning forever; the caller can
                # resume() the queue directory.
                return status
            if deadline is not None and time.monotonic() >= deadline:
                return status
            time.sleep(poll)

    def result(self, timeout: Optional[float] = None) -> MergedResult:
        """Wait, reap the workers, and merge (memoised)."""
        if self._result is not None:
            return self._result
        status = self.wait(timeout=timeout)
        if not status.done:
            raise IncompleteJobError(
                f"job incomplete: {status.completed}/{status.total} cells "
                f"({status.running_workers} workers still running); "
                f"resume with repro.distrib.resume({str(self.queue_dir)!r})"
            )
        self.cancel()  # reap stragglers still chewing stolen duplicates
        self._result = merge_results(self.queue)
        return self._result

    def cancel(self, grace: float = 5.0) -> None:
        """Terminate any still-running local workers."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.monotonic() + grace
        for proc in self.procs:
            while proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.02)
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _spawn_workers(queue: WorkQueue, n_workers: int, id_prefix: str = "w") -> List:
    """Launch ``n_workers`` local worker subprocesses on ``queue``."""
    import os

    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    procs = []
    for i in range(n_workers):
        procs.append(
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.distrib.worker",
                    "--queue",
                    str(queue.root),
                    "--worker-id",
                    f"{id_prefix}{i}",
                ],
                env=env,
            )
        )
    return procs


def submit(
    spec: SweepSpec,
    n_workers: int = 2,
    queue_dir: Optional[Union[str, Path]] = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    steal_after: Union[float, None, str] = "auto",
    inline: bool = False,
) -> JobHandle:
    """Explode ``spec`` into a queue and start draining it.

    The caller's execution snapshot (:func:`repro.context.snapshot`:
    backend, compute mode, site policy, telemetry, Ozaki slices,
    drift/adaptive switches) is stored in the manifest, and every
    worker — local subprocess or remote — restores it.

    ``queue_dir=None`` uses a fresh temporary directory; pass a shared
    path to let other hosts join.  ``inline=True`` drains the queue in
    this process instead of spawning anything (round-robin over
    ``n_workers`` synthetic worker ids) — the claims checker and unit
    tests use it to exercise the full protocol cheaply.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if queue_dir is None:
        queue_dir = tempfile.mkdtemp(prefix="repro-distrib-")
    queue = WorkQueue.create(
        queue_dir,
        spec,
        env=snapshot(),
        lease_seconds=lease_seconds,
        steal_after=steal_after,
    )
    if inline:
        _drain_inline(queue, n_workers)
        return JobHandle(queue, procs=[])
    return JobHandle(queue, procs=_spawn_workers(queue, n_workers))


def resume(
    queue_dir: Union[str, Path], n_workers: int = 2, inline: bool = False
) -> JobHandle:
    """Re-attach to an existing queue directory and finish it.

    Cells with completion records are skipped outright; expired leases
    are taken over.  Safe to call on an already-complete queue (the
    workers exit immediately and ``result()`` just merges).
    """
    queue = WorkQueue(queue_dir)
    if inline:
        _drain_inline(queue, n_workers)
        return JobHandle(queue, procs=[])
    return JobHandle(queue, procs=_spawn_workers(queue, n_workers, id_prefix="r"))


def _drain_inline(queue: WorkQueue, n_workers: int) -> None:
    """Drain a queue in-process, round-robin over synthetic worker ids.

    Exercises the identical claim/record protocol the subprocess path
    uses (same ``run_worker``), without the spawn cost; the snapshot
    is NOT restored — inline callers already carry the ambient state.
    """
    from repro.distrib.worker import run_worker

    workers = [f"inline{i}" for i in range(max(1, n_workers))]
    while not queue.all_done():
        progressed = 0
        for worker_id in workers:
            progressed += run_worker(
                queue.root, worker_id=worker_id, max_cells=1, apply_env=False
            )
        if progressed == 0:
            break
