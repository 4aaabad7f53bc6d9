"""Streamed per-cell telemetry and its cross-worker merge.

Workers snapshot one fresh collector per cell into their telemetry
shard (:func:`snapshot_cell_telemetry`), and the merge replays the
winning cells' counters/gauges into the driver's collector
(:func:`merge_cell_telemetry`) plus derives the cross-worker
``distrib.*`` attribution counters from the result records
(:func:`distrib_counters`) — derived from results, not worker
summaries, so a killed worker's completed cells still count.

The ambient settings a worker needs travel separately: the driver
stores :func:`repro.context.snapshot` in the queue manifest and each
worker :func:`repro.context.restore`-s it before its first cell.
"""

from __future__ import annotations

from typing import Dict, List

from repro.telemetry.registry import Telemetry, parse_counter_name

__all__ = [
    "snapshot_cell_telemetry",
    "merge_cell_telemetry",
    "distrib_counters",
]


# ----------------------------------------------------------------------
# Per-cell telemetry stream.
# ----------------------------------------------------------------------


def snapshot_cell_telemetry(
    collector: Telemetry, cell_key: str, worker: str, attempt: int, seconds: float
) -> dict:
    """One telemetry shard record: a cell's counters/gauges snapshot."""
    return {
        "type": "cell_telemetry",
        "cell": cell_key,
        "worker": worker,
        "attempt": attempt,
        "seconds": seconds,
        "counters": collector.counters_flat(),
        "gauges": collector.gauges_flat(),
    }


def merge_cell_telemetry(
    collector: Telemetry, records: List[dict], winners: Dict[str, dict]
) -> int:
    """Replay winning cells' telemetry into ``collector``.

    Only the records matching a winner's (cell, worker, attempt) are
    merged — a stolen duplicate's stream is discarded along with its
    result, so counters are never double-counted.  Returns the number
    of cell streams merged.
    """
    merged = 0
    for rec in records:
        if rec.get("type") != "cell_telemetry":
            continue
        winner = winners.get(rec.get("cell"))
        if winner is None:
            continue
        if rec.get("worker") != winner.get("worker"):
            continue
        if int(rec.get("attempt", 1)) != int(winner.get("attempt", 1)):
            continue
        for flat, value in dict(rec.get("counters", {})).items():
            name, labels = parse_counter_name(flat)
            collector.count(name, float(value), **dict(labels))
        for flat, value in dict(rec.get("gauges", {})).items():
            name, labels = parse_counter_name(flat)
            collector.gauge(name, float(value), **dict(labels))
        merged += 1
    return merged


def distrib_counters(collector: Telemetry, stats) -> None:
    """Emit the cross-worker ``distrib.*`` attribution counters.

    ``stats`` is a :class:`repro.distrib.queue.ShardStats`.  Everything
    here is derived from the result shards at merge time, so the
    numbers are correct even when a worker was killed mid-run and never
    wrote a summary of its own.
    """
    for worker, per in sorted(stats.per_worker.items()):
        collector.count("distrib.cells", per["cells"], worker=worker)
        collector.count("distrib.worker_seconds", per["worker_seconds"], worker=worker)
        if per["steals"]:
            collector.count("distrib.steals", per["steals"], worker=worker)
        if per["lease_takeovers"]:
            collector.count(
                "distrib.lease_expired", per["lease_takeovers"], worker=worker
            )
    if stats.duplicates:
        collector.count("distrib.duplicates", stats.duplicates)
    if stats.corrupt_records:
        collector.count("distrib.corrupt_records", stats.corrupt_records)
