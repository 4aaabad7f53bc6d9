"""Unit tests: kernel event timeline."""

import pytest

from repro.gpu.timeline import KernelEvent, Timeline


class TestTimeline:
    def test_append_advances_clock(self):
        tl = Timeline()
        e1 = tl.append("a", 1.0)
        e2 = tl.append("b", 2.0)
        assert e1.start == 0.0 and e1.end == 1.0
        assert e2.start == 1.0 and e2.end == 3.0
        assert tl.clock == 3.0

    def test_total_l0_time(self):
        tl = Timeline()
        tl.append("a", 1.0)
        tl.append("b", 0.5)
        assert tl.total_l0_time() == pytest.approx(1.5)

    def test_aggregations(self):
        tl = Timeline()
        tl.append("gemm", 1.0, kind="blas", site="nlp_prop")
        tl.append("gemm", 2.0, kind="blas", site="remap_occ")
        tl.append("fft", 0.5, kind="app", site="nlp_prop")
        assert tl.time_by_name() == {"gemm": 3.0, "fft": 0.5}
        assert tl.time_by_kind() == {"blas": 3.0, "app": 0.5}

    def test_unlabelled_kind_bucketed(self):
        tl = Timeline()
        tl.append("x", 1.0)
        assert tl.time_by_kind() == {"?": 1.0}

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Timeline().append("a", -1.0)

    def test_reset(self):
        tl = Timeline()
        tl.append("a", 1.0)
        tl.reset()
        assert len(tl) == 0
        assert tl.clock == 0.0
        assert tl.total_l0_time() == 0.0

    def test_events_are_copies(self):
        tl = Timeline()
        tl.append("a", 1.0)
        tl.events.clear()
        assert len(tl) == 1

    def test_event_immutable(self):
        e = KernelEvent("a", 0.0, 1.0)
        with pytest.raises(AttributeError):
            e.duration = 2.0
