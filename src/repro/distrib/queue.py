"""File-backed work queue with atomic leases and JSONL result shards.

Layout of a queue directory (every file is plain JSON/JSONL, so the
queue is inspectable with ``cat`` and shareable over any filesystem
both hosts can mount)::

    queue/
      manifest.json            # spec, context snapshot, cell list, lease policy
      leases/
        cell-000007.json       # current lease: worker, deadline, attempt
        cell-000007.steal-w1   # speculative re-issue marker (empty)
      results/
        w0.jsonl               # append-only completion records, one owner
      telemetry/
        w0.jsonl               # per-cell telemetry snapshots, one owner

Atomicity rules (POSIX-local, no locks held across work):

* **manifest** and **lease** writes go through write-to-temp +
  ``os.replace`` — readers see the old or the new record, never a
  torn one.
* **lease claims** race through ``O_CREAT | O_EXCL`` — exactly one
  worker wins a vacant lease.  Expired-lease takeovers use replace;
  a takeover race produces duplicate execution, which the merge
  discards by cell key (first completion wins).
* **results/telemetry shards** are append-only and single-writer
  (one file per worker), so no cross-process append race exists at
  all.  A crash can truncate at most the trailing record of a shard;
  readers drop undecodable lines and count them
  (``distrib.corrupt_records``) instead of failing — the affected
  cell simply runs again.

This is the substrate of checkpoint/resume: completion state lives
only in the shards, so a restarted driver (or a brand-new worker on
another host) reconstructs exactly what is done by re-reading them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.distrib.cells import Cell, SweepSpec

__all__ = ["QueueError", "WorkQueue", "ClaimOutcome", "read_jsonl_tolerant"]

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
LEASES_DIR = "leases"
RESULTS_DIR = "results"
TELEMETRY_DIR = "telemetry"

MANIFEST_VERSION = 1

#: Default lease duration; a worker renews at a third of this.
DEFAULT_LEASE_SECONDS = 30.0


class QueueError(RuntimeError):
    """A queue directory is missing, already initialised, or unusable."""


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp + replace."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _read_json_tolerant(path: Path) -> Optional[dict]:
    """Parse one JSON file; ``None`` when missing or undecodable."""
    try:
        text = path.read_text()
    except OSError:
        return None
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return None
    return data if isinstance(data, dict) else None


def read_jsonl_tolerant(path: Path) -> Tuple[List[dict], int]:
    """All decodable records of a JSONL file plus the corrupt-line count.

    A crash mid-append leaves at most a truncated trailing line; any
    undecodable line is dropped and counted rather than raised, so a
    resumed run degrades to re-executing the affected cell.
    """
    try:
        text = path.read_text()
    except OSError:
        return [], 0
    records: List[dict] = []
    corrupt = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            corrupt += 1
            continue
        if isinstance(obj, dict):
            records.append(obj)
        else:
            corrupt += 1
    return records, corrupt


@dataclasses.dataclass(frozen=True)
class ClaimOutcome:
    """What :meth:`WorkQueue.try_claim` found at the lease file."""

    status: str  #: "claimed" | "held"
    attempt: int = 1
    takeover: bool = False  #: claimed by replacing an expired lease
    corrupt: bool = False  #: the previous lease record was undecodable
    holder: Optional[str] = None  #: current holder when status == "held"
    age: float = 0.0  #: seconds since the held lease was claimed


@dataclasses.dataclass
class ShardStats:
    """Merge-time accounting derived from the result shards."""

    completed: int = 0
    duplicates: int = 0
    corrupt_records: int = 0
    steals: int = 0
    lease_takeovers: int = 0
    #: worker -> {"cells", "steals", "lease_takeovers", "worker_seconds"};
    #: ``cells`` counts the cells the worker won, the rest every record.
    per_worker: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)


class WorkQueue:
    """One sharded job: a manifest plus lease/result/telemetry state."""

    def __init__(self, root: PathLike):
        self.root = Path(root)
        manifest = _read_json_tolerant(self.root / MANIFEST_NAME)
        if manifest is None:
            raise QueueError(
                f"{self.root} is not a work queue (no readable {MANIFEST_NAME})"
            )
        self.manifest = manifest
        self.spec = SweepSpec.from_json(manifest["spec"])
        #: The submitter's repro.context.snapshot() ({} when none).
        self.env: Dict[str, Any] = dict(manifest.get("env", {}))
        self.lease_seconds = float(manifest.get("lease_seconds", DEFAULT_LEASE_SECONDS))
        raw_steal = manifest.get("steal_after_seconds")
        self.steal_after: Optional[float] = (
            None if raw_steal is None else float(raw_steal)
        )
        self.cells: List[Cell] = [Cell.from_json(c) for c in manifest["cells"]]
        keys = [c.key for c in self.cells]
        if len(set(keys)) != len(keys):
            raise QueueError("manifest contains duplicate cell keys")
        self._index_by_key = {key: i for i, key in enumerate(keys)}

    # -- construction --------------------------------------------------

    @classmethod
    def create(
        cls,
        root: PathLike,
        spec: SweepSpec,
        env: Optional[Dict[str, Any]] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        steal_after: Union[float, None, str] = "auto",
    ) -> "WorkQueue":
        """Initialise a queue directory for ``spec``.

        ``env`` is the execution snapshot workers restore
        (:func:`repro.context.snapshot`); ``None`` stores an empty one,
        which restores nothing.  ``steal_after="auto"`` (the default)
        arms work-stealing at half the lease duration; ``None``
        disables speculative re-issue entirely (stragglers then recover
        only through lease expiry).
        """
        root = Path(root)
        if (root / MANIFEST_NAME).exists():
            raise QueueError(f"{root} already contains a {MANIFEST_NAME}")
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be positive, got {lease_seconds}")
        if steal_after == "auto":
            steal_after = lease_seconds / 2.0
        for sub in (LEASES_DIR, RESULTS_DIR, TELEMETRY_DIR):
            (root / sub).mkdir(parents=True, exist_ok=True)
        manifest = {
            "version": MANIFEST_VERSION,
            "created_unix": time.time(),
            "lease_seconds": float(lease_seconds),
            "steal_after_seconds": None if steal_after is None else float(steal_after),
            "env": dict(env or {}),
            "spec": spec.to_json(),
            "cells": [c.to_json() for c in spec.cells()],
        }
        _atomic_write(root / MANIFEST_NAME, json.dumps(manifest, indent=1))
        return cls(root)

    # -- paths ---------------------------------------------------------

    def lease_path(self, index: int) -> Path:
        return self.root / LEASES_DIR / f"cell-{index:06d}.json"

    def steal_marker_path(self, index: int, worker: str) -> Path:
        return self.root / LEASES_DIR / f"cell-{index:06d}.steal-{worker}"

    def results_path(self, worker: str) -> Path:
        return self.root / RESULTS_DIR / f"{worker}.jsonl"

    def telemetry_path(self, worker: str) -> Path:
        return self.root / TELEMETRY_DIR / f"{worker}.jsonl"

    def index_of(self, key: str) -> int:
        return self._index_by_key[key]

    # -- lease protocol ------------------------------------------------

    def read_lease(self, index: int) -> Optional[dict]:
        return _read_json_tolerant(self.lease_path(index))

    def try_claim(
        self, index: int, worker: str, now: Optional[float] = None
    ) -> ClaimOutcome:
        """Attempt to lease cell ``index`` for ``worker``.

        Vacant lease: won through ``O_CREAT | O_EXCL`` (exactly one
        winner).  Expired or undecodable lease: taken over via atomic
        replace — a takeover race can duplicate execution, never lose
        it.  An active lease held elsewhere returns ``"held"``.
        """
        now = time.time() if now is None else now
        path = self.lease_path(index)
        record = {
            "cell": self.cells[index].key,
            "index": index,
            "worker": worker,
            "claimed_unix": now,
            "deadline_unix": now + self.lease_seconds,
            "attempt": 1,
        }
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            pass
        else:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(record))
            return ClaimOutcome(status="claimed", attempt=1)
        prev = _read_json_tolerant(path)
        if prev is not None and float(prev.get("deadline_unix", 0.0)) > now:
            return ClaimOutcome(
                status="held",
                attempt=int(prev.get("attempt", 1)),
                holder=prev.get("worker"),
                age=now - float(prev.get("claimed_unix", now)),
            )
        corrupt = prev is None
        record["attempt"] = 1 if corrupt else int(prev.get("attempt", 1)) + 1
        _atomic_write(path, json.dumps(record))
        return ClaimOutcome(
            status="claimed",
            attempt=record["attempt"],
            takeover=True,
            corrupt=corrupt,
        )

    def renew(self, index: int, worker: str, now: Optional[float] = None) -> bool:
        """Extend ``worker``'s lease on ``index``; False if lost."""
        now = time.time() if now is None else now
        prev = _read_json_tolerant(self.lease_path(index))
        if prev is None or prev.get("worker") != worker:
            return False
        prev["deadline_unix"] = now + self.lease_seconds
        _atomic_write(self.lease_path(index), json.dumps(prev))
        return True

    def try_steal(self, index: int, worker: str) -> bool:
        """Mark a speculative re-issue of a leased cell by ``worker``.

        One marker per (cell, worker): the ``O_EXCL`` create makes the
        steal idempotent, so an idle worker re-scanning the queue
        cannot pile duplicate executions onto the same straggler.
        """
        try:
            fd = os.open(
                self.steal_marker_path(index, worker),
                os.O_WRONLY | os.O_CREAT | os.O_EXCL,
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def steal_markers(self, index: int) -> int:
        """How many workers have already re-issued cell ``index``."""
        pattern = f"cell-{index:06d}.steal-*"
        return len(list((self.root / LEASES_DIR).glob(pattern)))

    # -- completion records --------------------------------------------

    def record_result(
        self,
        worker: str,
        index: int,
        result: dict,
        seconds: float,
        attempt: int = 1,
        stolen: bool = False,
        takeover: bool = False,
    ) -> None:
        """Append one completion record to ``worker``'s own shard."""
        record = {
            "type": "result",
            "cell": self.cells[index].key,
            "index": index,
            "worker": worker,
            "attempt": attempt,
            "stolen": stolen,
            "lease_takeover": takeover,
            "completed_unix": time.time(),
            "seconds": seconds,
            "result": result,
        }
        self._append(self.results_path(worker), record)

    def record_telemetry(self, worker: str, record: dict) -> None:
        """Append one telemetry record to ``worker``'s telemetry shard."""
        self._append(self.telemetry_path(worker), record)

    @staticmethod
    def _append(path: Path, record: dict) -> None:
        line = json.dumps(record)
        if "\n" in line:  # defensive: JSONL integrity over exotic payloads
            raise ValueError("JSONL record serialised with an embedded newline")
        with open(path, "a") as fh:
            fh.write(line + "\n")
            fh.flush()

    # -- merge-side scanning -------------------------------------------

    def result_records(self) -> Tuple[List[dict], int]:
        """Every decodable result record across all shards."""
        records: List[dict] = []
        corrupt = 0
        for shard in sorted((self.root / RESULTS_DIR).glob("*.jsonl")):
            recs, bad = read_jsonl_tolerant(shard)
            corrupt += bad
            records.extend(r for r in recs if r.get("type") == "result")
        return records, corrupt

    def telemetry_records(self) -> Tuple[List[dict], int]:
        """Every decodable telemetry record across all shards."""
        records: List[dict] = []
        corrupt = 0
        for shard in sorted((self.root / TELEMETRY_DIR).glob("*.jsonl")):
            recs, bad = read_jsonl_tolerant(shard)
            corrupt += bad
            records.extend(recs)
        return records, corrupt

    def completed(self) -> Tuple[Dict[str, dict], ShardStats]:
        """First-completion-wins view of the result shards.

        Returns ``(winners, stats)``: ``winners`` maps cell key to the
        earliest completion record (ties broken by worker id, so every
        reader of the same shards picks the same winner); ``stats``
        carries the duplicate/steal/takeover accounting the
        ``distrib.*`` counters are built from.
        """
        records, corrupt = self.result_records()
        known = set(self._index_by_key)
        winners: Dict[str, dict] = {}
        stats = ShardStats(corrupt_records=corrupt)
        for rec in sorted(
            records,
            key=lambda r: (float(r.get("completed_unix", 0.0)), str(r.get("worker"))),
        ):
            key = rec.get("cell")
            if key not in known:
                stats.corrupt_records += 1
                continue
            worker = str(rec.get("worker", "?"))
            per = stats.per_worker.setdefault(
                worker,
                {"cells": 0, "steals": 0, "lease_takeovers": 0, "worker_seconds": 0.0},
            )
            per["worker_seconds"] += float(rec.get("seconds", 0.0))
            if rec.get("stolen"):
                per["steals"] += 1
                stats.steals += 1
            if rec.get("lease_takeover"):
                per["lease_takeovers"] += 1
                stats.lease_takeovers += 1
            if key in winners:
                stats.duplicates += 1
                continue
            per["cells"] += 1
            winners[key] = rec
        stats.completed = len(winners)
        return winners, stats

    def completed_keys(self) -> set:
        """Cell keys with at least one completion record (fast path)."""
        records, _ = self.result_records()
        known = set(self._index_by_key)
        return {r["cell"] for r in records if r.get("cell") in known}

    def all_done(self) -> bool:
        return len(self.completed_keys()) >= len(self.cells)
