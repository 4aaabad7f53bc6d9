"""Unit tests for the file-backed work queue: leases, shards, merge."""

import json
import time

import pytest

from repro.distrib import SweepSpec, WorkQueue
from repro.distrib.queue import QueueError, read_jsonl_tolerant


def make_queue(tmp_path, n_cells=4, **kwargs):
    spec = SweepSpec(kind="synthetic", n_cells=n_cells, params={"cell_seconds": 0.0})
    return WorkQueue.create(tmp_path / "q", spec, **kwargs)


class TestCreateOpen:
    def test_create_then_reopen_sees_same_cells(self, tmp_path):
        q = make_queue(tmp_path, n_cells=3, env={"REPRO_TELEMETRY": "1"})
        q2 = WorkQueue(q.root)
        assert [c.key for c in q2.cells] == [c.key for c in q.cells]
        assert q2.env == {"REPRO_TELEMETRY": "1"}

    def test_create_refuses_existing_queue(self, tmp_path):
        q = make_queue(tmp_path)
        with pytest.raises(QueueError, match="already contains"):
            WorkQueue.create(q.root, q.spec)

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(QueueError, match="not a work queue"):
            WorkQueue(tmp_path)

    def test_steal_after_auto_is_half_lease(self, tmp_path):
        q = make_queue(tmp_path, lease_seconds=10.0)
        assert q.steal_after == 5.0
        q2 = make_queue(tmp_path / "b", lease_seconds=10.0, steal_after=None)
        assert q2.steal_after is None


class TestLeaseProtocol:
    def test_claim_is_exclusive(self, tmp_path):
        q = make_queue(tmp_path)
        assert q.try_claim(0, "w0").status == "claimed"
        held = q.try_claim(0, "w1")
        assert held.status == "held"
        assert held.holder == "w0"

    def test_expired_lease_taken_over_with_attempt_bump(self, tmp_path):
        q = make_queue(tmp_path, lease_seconds=10.0)
        now = time.time()
        assert q.try_claim(0, "w0", now=now - 60.0).status == "claimed"
        outcome = q.try_claim(0, "w1", now=now)
        assert outcome.status == "claimed"
        assert outcome.takeover is True
        assert outcome.attempt == 2

    def test_renew_extends_only_own_lease(self, tmp_path):
        q = make_queue(tmp_path, lease_seconds=10.0)
        q.try_claim(0, "w0")
        assert q.renew(0, "w0") is True
        assert q.renew(0, "w1") is False
        assert q.renew(1, "w0") is False  # never claimed

    def test_corrupt_lease_is_reclaimable(self, tmp_path):
        q = make_queue(tmp_path)
        q.lease_path(0).write_text("{not json")
        outcome = q.try_claim(0, "w1")
        assert outcome.status == "claimed"
        assert outcome.corrupt is True

    def test_steal_marker_once_per_worker(self, tmp_path):
        q = make_queue(tmp_path)
        assert q.try_steal(0, "w1") is True
        assert q.try_steal(0, "w1") is False  # idempotent
        assert q.try_steal(0, "w2") is True
        assert q.steal_markers(0) == 2


class TestResultShards:
    def test_first_completion_wins_dup_counted(self, tmp_path):
        q = make_queue(tmp_path, n_cells=1)
        q.record_result("w0", 0, {"v": 1}, seconds=0.5)
        time.sleep(0.01)
        q.record_result("w1", 0, {"v": 2}, seconds=0.3, stolen=True)
        winners, stats = q.completed()
        assert winners[q.cells[0].key]["result"] == {"v": 1}
        assert stats.duplicates == 1
        assert stats.steals == 1
        assert stats.per_worker["w1"]["steals"] == 1
        assert stats.per_worker["w0"]["cells"] == 1

    def test_cells_count_winners_only(self, tmp_path):
        # A speculative duplicate is work done, not a cell won.
        q = make_queue(tmp_path, n_cells=1)
        q.record_result("w0", 0, {}, seconds=0.5)
        time.sleep(0.01)
        q.record_result("w1", 0, {}, seconds=0.25, stolen=True)
        _, stats = q.completed()
        assert sum(per["cells"] for per in stats.per_worker.values()) == 1
        assert stats.per_worker["w1"]["cells"] == 0
        assert stats.per_worker["w1"]["worker_seconds"] == pytest.approx(0.25)
        assert stats.per_worker["w1"]["steals"] == 1

    def test_per_worker_seconds_accumulate(self, tmp_path):
        q = make_queue(tmp_path, n_cells=2)
        q.record_result("w0", 0, {}, seconds=0.25)
        q.record_result("w0", 1, {}, seconds=0.75, takeover=True)
        _, stats = q.completed()
        assert stats.per_worker["w0"]["worker_seconds"] == pytest.approx(1.0)
        assert stats.per_worker["w0"]["lease_takeovers"] == 1
        assert stats.lease_takeovers == 1

    def test_all_done_tracks_completion(self, tmp_path):
        q = make_queue(tmp_path, n_cells=2)
        assert not q.all_done()
        q.record_result("w0", 0, {}, seconds=0.0)
        assert not q.all_done()
        q.record_result("w1", 1, {}, seconds=0.0)
        assert q.all_done()

    def test_result_floats_round_trip_exactly(self, tmp_path):
        q = make_queue(tmp_path, n_cells=1)
        value = 0.1 + 0.2  # not representable "nicely"; repr round-trips
        q.record_result("w0", 0, {"x": value}, seconds=0.0)
        winners, _ = q.completed()
        assert winners[q.cells[0].key]["result"]["x"] == value


class TestCorruptionTolerance:
    def test_truncated_trailing_record_dropped_and_counted(self, tmp_path):
        """A crash mid-append must cost one record, not the run."""
        q = make_queue(tmp_path, n_cells=2)
        q.record_result("w0", 0, {"v": 1}, seconds=0.0)
        q.record_result("w0", 1, {"v": 2}, seconds=0.0)
        path = q.results_path("w0")
        text = path.read_text()
        path.write_text(text[:-10])  # tear the trailing record mid-line
        winners, stats = q.completed()
        assert len(winners) == 1  # the intact record survives
        assert stats.corrupt_records >= 1
        assert not q.all_done()  # the damaged cell is re-runnable

    def test_garbage_line_between_records_tolerated(self, tmp_path):
        q = make_queue(tmp_path, n_cells=1)
        q.record_result("w0", 0, {"v": 1}, seconds=0.0)
        with open(q.results_path("w0"), "a") as fh:
            fh.write("== not json ==\n")
        records, corrupt = read_jsonl_tolerant(q.results_path("w0"))
        assert len(records) == 1
        assert corrupt == 1

    def test_unknown_cell_key_counts_as_corrupt(self, tmp_path):
        q = make_queue(tmp_path, n_cells=1)
        q.record_result("w0", 0, {"v": 1}, seconds=0.0)
        with open(q.results_path("w0"), "a") as fh:
            fh.write(json.dumps({"type": "result", "cell": "bogus:key"}) + "\n")
        winners, stats = q.completed()
        assert len(winners) == 1
        assert stats.corrupt_records == 1
