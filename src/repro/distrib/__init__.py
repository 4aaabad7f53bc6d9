"""Distributed sweep/ensemble engine: sharded work queue + merge.

The paper's artifacts are grids of independent cells — (mode x N_orb x
trajectory-seed x experiment) — which the serial paths evaluate inside
one process.  This package explodes such a grid into :class:`Cell`
records, shards them across worker *processes* through a file-backed
work queue, and merges the results into the same artifacts the serial
path produces, bitwise-identically (pinned by the
``distrib-serial-equivalence`` claim and the golden test in
``tests/integration/test_distrib_engine.py``).

Layers, bottom-up:

``repro.distrib.cells``
    The unit of work: spec -> cell explosion, plus the cell bodies
    (``run_cell``) every worker executes.

``repro.distrib.queue``
    The file-backed queue: one ``manifest.json``, atomic
    lease/renew/complete records under ``leases/``, per-worker
    append-only JSONL results and telemetry shards.  Crash-safe by
    construction — a restarted driver skips completed cells and
    re-leases expired ones, and a truncated trailing JSONL record is
    dropped (and counted) rather than fatal.

``repro.distrib.worker``
    The worker loop and its CLI (``python -m repro.distrib.worker
    --queue DIR``).  Spawn-safe: a worker needs only the queue
    directory, so multi-host launch is just more processes pointed at
    a shared directory.  Idle workers speculatively re-issue
    long-leased cells (work-stealing); duplicates are discarded by
    cell key at merge time, first completion wins.

``repro.distrib.collector``
    The per-cell telemetry stream and its cross-worker merge
    (``distrib.*`` counters, per-shard attribution).  The ambient
    settings reach workers as a :func:`repro.context.snapshot` stored
    in the manifest.

``repro.distrib.driver``
    The async API: ``submit(spec) -> JobHandle`` with ``status()`` /
    ``wait()`` / ``result()``, ``resume(queue_dir)`` for
    checkpoint/resume, and the result merge.

See ``docs/DISTRIBUTED.md`` for the queue format, the lease protocol
and the multi-host recipe.
"""

from repro.distrib.cells import Cell, SweepSpec, run_cell
from repro.distrib.driver import (
    IncompleteJobError,
    JobHandle,
    JobStatus,
    MergedResult,
    merge_results,
    resume,
    submit,
)
from repro.distrib.queue import WorkQueue

__all__ = [
    "Cell",
    "SweepSpec",
    "run_cell",
    "WorkQueue",
    "submit",
    "resume",
    "merge_results",
    "JobHandle",
    "JobStatus",
    "MergedResult",
    "IncompleteJobError",
]
