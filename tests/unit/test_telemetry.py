"""Unit tests for :mod:`repro.telemetry.registry`.

Covers the collector semantics (label-keyed counters, histograms, span
timers, the event-buffer cap), the enable/disable lifecycle, the
unified BLAS event stream, and — most load-bearing — the guarantee that
the *disabled* path performs no allocations, since every GEMM in the
LFD hot loop crosses it.
"""

import gc
import os
import subprocess
import sys
import threading

import pytest

from repro.blas.modes import ComputeMode
from repro.blas.verbose import VerboseRecord, emit_call, observing
from repro.telemetry import registry
from repro.telemetry.registry import (
    BUCKET_BOUNDS,
    MAX_EVENTS_ENV,
    Histogram,
    Telemetry,
    active,
    disable,
    enable,
    format_counter_name,
    parse_counter_name,
    telemetry,
    telemetry_enabled,
)

pytestmark = pytest.mark.telemetry


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts and ends with telemetry uninstalled."""
    prev = disable()
    yield
    disable()
    if prev is not None:
        enable(prev)


def _rec(routine="cgemm", m=4, n=4, k=4, site="remap_occ", **kw):
    kw.setdefault("mode", ComputeMode.STANDARD)
    kw.setdefault("seconds", 1e-4)
    return VerboseRecord(
        routine=routine, trans_a="N", trans_b="N", m=m, n=n, k=k, site=site, **kw
    )


class TestCounters:
    def test_count_accumulates(self):
        t = Telemetry()
        t.count("x")
        t.count("x", 2)
        assert t.counter_value("x") == 3

    def test_labels_key_distinct_series(self):
        t = Telemetry()
        t.count("blas.calls", routine="cgemm")
        t.count("blas.calls", routine="sgemm")
        t.count("blas.calls", routine="cgemm")
        assert t.counter_value("blas.calls", routine="cgemm") == 2
        assert t.counter_value("blas.calls", routine="sgemm") == 1
        assert t.counter_total("blas.calls") == 3

    def test_label_order_is_irrelevant(self):
        t = Telemetry()
        t.count("c", a="1", b="2")
        assert t.counter_value("c", b="2", a="1") == 1

    def test_untouched_counter_reads_zero(self):
        assert Telemetry().counter_value("nope") == 0.0

    def test_counters_flat_rendering(self):
        t = Telemetry()
        t.count("blas.calls", routine="cgemm", site="nlp_prop")
        flat = t.counters_flat()
        assert flat == {"blas.calls{routine=cgemm,site=nlp_prop}": 1.0}

    def test_thread_safety(self):
        t = Telemetry()

        def hammer():
            for _ in range(1000):
                t.count("n")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert t.counter_value("n") == 8000


class TestHistogram:
    def test_streaming_stats(self):
        h = Histogram()
        for v in (1e-5, 1e-3, 1.0):
            h.observe(v)
        assert h.count == 3
        assert h.min == 1e-5
        assert h.max == 1.0
        assert h.mean == pytest.approx((1e-5 + 1e-3 + 1.0) / 3)

    def test_bucket_assignment(self):
        h = Histogram()
        h.observe(5e-6)  # second bucket (1e-6 < v <= 1e-5)
        h.observe(100.0)  # overflow bucket
        assert h.buckets[1] == 1
        assert h.buckets[-1] == 1
        assert sum(h.buckets) == h.count

    def test_dict_round_trip(self):
        h = Histogram()
        for v in (2e-6, 3e-4, 0.5):
            h.observe(v)
        h2 = Histogram.from_dict(h.to_dict())
        assert h2.count == h.count
        assert h2.total == h.total
        assert h2.min == h.min
        assert h2.max == h.max
        assert h2.buckets == h.buckets

    def test_empty_round_trip(self):
        h2 = Histogram.from_dict(Histogram().to_dict())
        assert h2.count == 0
        assert h2.mean == 0.0

    def test_bounds_are_sorted(self):
        assert list(BUCKET_BOUNDS) == sorted(BUCKET_BOUNDS)

    def test_round_trip_preserves_every_field(self):
        h = Histogram()
        for v in (1e-7, 1e-7, 3e-4, 0.5, 250.0):
            h.observe(v)
        d = h.to_dict()
        h2 = Histogram.from_dict(d)
        assert h2.to_dict() == d
        # And the restored histogram keeps accumulating correctly.
        h2.observe(1.0)
        assert h2.count == h.count + 1
        assert h2.max == max(h.max, 1.0)

    def test_from_dict_ignores_unknown_keys(self):
        d = Histogram().to_dict()
        d["future_field"] = "whatever"
        assert Histogram.from_dict(d).count == 0


class TestCounterNameRendering:
    def test_plain_name_round_trip(self):
        assert format_counter_name("lfd.qd_steps", ()) == "lfd.qd_steps"
        assert parse_counter_name("lfd.qd_steps") == ("lfd.qd_steps", ())

    def test_labels_render_in_given_order(self):
        rendered = format_counter_name(
            "blas.calls", (("mode", "STANDARD"), ("routine", "cgemm"))
        )
        assert rendered == "blas.calls{mode=STANDARD,routine=cgemm}"

    def test_collector_sorts_labels_before_rendering(self):
        t = Telemetry()
        t.count("c", zebra="1", alpha="2")
        (flat,) = t.counters_flat()
        assert flat == "c{alpha=2,zebra=1}"

    @pytest.mark.parametrize(
        "value",
        [
            "a,b", "a=b", "{curly}", "back\\slash", "all,of={it}\\=",
            "nlp_prop@gemm/cgemm/32x32x2048",
        ],
    )
    def test_escaping_round_trip(self, value):
        labels = (("k", value), (value, "v"))
        name, parsed = parse_counter_name(format_counter_name("n", labels))
        assert name == "n"
        assert parsed == labels

    def test_escaped_form_is_unambiguous(self):
        # Two label sets that would collide unescaped must not collide.
        a = format_counter_name("n", (("k", "x,y=z"),))
        b = format_counter_name("n", (("k", "x"), ("y", "z")))
        assert a != b
        assert parse_counter_name(a) == ("n", (("k", "x,y=z"),))
        assert parse_counter_name(b) == ("n", (("k", "x"), ("y", "z")))

    def test_trailing_brace_without_open_is_literal(self):
        assert parse_counter_name("weird}") == ("weird}", ())


class TestSpans:
    def test_span_emits_complete_event_and_histogram(self):
        t = Telemetry()
        with t.span("qd_step", cat="lfd", t_au=0.25):
            pass
        (event,) = t.events
        assert event["ph"] == "X"
        assert event["name"] == "qd_step"
        assert event["cat"] == "lfd"
        assert event["args"] == {"t_au": 0.25}
        assert event["dur"] >= 0.0
        assert t.histograms["span.qd_step"].count == 1

    def test_span_records_even_on_exception(self):
        t = Telemetry()
        with pytest.raises(RuntimeError):
            with t.span("boom"):
                raise RuntimeError("x")
        assert t.histograms["span.boom"].count == 1

    def test_instant_event(self):
        t = Telemetry()
        t.instant("marker", cat="app", step=3)
        (event,) = t.events
        assert event["ph"] == "i"
        assert event["args"] == {"step": 3}

    def test_event_buffer_cap(self, monkeypatch):
        monkeypatch.setattr(registry, "MAX_EVENTS", 5)
        t = Telemetry()
        for i in range(9):
            t.instant("e", i=i)
        assert len(t.events) == 5
        assert t.dropped_events == 4
        assert t.snapshot()["dropped_events"] == 4
        # Drops are first-class data, not a silent cap: the counter
        # travels with every export.
        assert t.counter_value("telemetry.events_dropped") == 4

    def test_max_events_env(self, monkeypatch):
        monkeypatch.setenv(MAX_EVENTS_ENV, "123")
        assert registry._max_events_from_env() == 123
        monkeypatch.setenv(MAX_EVENTS_ENV, "not-a-number")
        assert registry._max_events_from_env() == registry._DEFAULT_MAX_EVENTS
        monkeypatch.setenv(MAX_EVENTS_ENV, "-5")
        assert registry._max_events_from_env() == registry._DEFAULT_MAX_EVENTS
        monkeypatch.delenv(MAX_EVENTS_ENV)
        assert registry._max_events_from_env() == registry._DEFAULT_MAX_EVENTS

    def test_max_events_env_contract(self):
        """REPRO_TELEMETRY_MAX_EVENTS caps the buffer at import time."""
        code = (
            "from repro.telemetry.registry import MAX_EVENTS; print(MAX_EVENTS)"
        )
        env = dict(os.environ, REPRO_TELEMETRY_MAX_EVENTS="7")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout.strip() == "7"


class TestBlasStream:
    def test_blas_call_counters(self):
        t = Telemetry()
        t.blas_call(_rec(m=2, n=3, k=4))
        assert t.counter_value(
            "blas.calls", routine="cgemm", site="remap_occ", mode="STANDARD",
            backend="numpy"
        ) == 1
        # cgemm flops: 8*m*n*k
        assert t.counter_value("blas.flops", routine="cgemm") == 8 * 2 * 3 * 4
        # cgemm bytes: 8 bytes/elem * (mk + kn + mn)
        assert t.counter_value("blas.bytes", routine="cgemm") == 8 * (8 + 12 + 6)
        assert t.histograms["blas.seconds"].count == 1

    def test_verbose_record_reconstruction(self):
        t = Telemetry()
        original = _rec(
            routine="sgemm", m=7, n=5, k=3, site="calc_energy",
            mode=ComputeMode.FLOAT_TO_BF16X3, model_seconds=2.5e-3,
        )
        t.blas_call(original)
        (rebuilt,) = t.verbose_records()
        assert rebuilt.routine == original.routine
        assert (rebuilt.m, rebuilt.n, rebuilt.k) == (7, 5, 3)
        assert rebuilt.mode is ComputeMode.FLOAT_TO_BF16X3
        assert rebuilt.site == "calc_energy"
        assert rebuilt.seconds == original.seconds
        assert rebuilt.model_seconds == original.model_seconds

    def test_emit_call_feeds_installed_collector(self):
        t = enable()
        emit_call(_rec())
        assert t.counter_total("blas.calls") == 1

    def test_emit_call_without_collector_is_noop(self):
        emit_call(_rec())  # must not raise; nothing to assert against


class TestLifecycle:
    def test_enable_disable(self):
        assert active() is None
        assert not telemetry_enabled()
        t = enable()
        assert active() is t
        assert telemetry_enabled()
        assert disable() is t
        assert active() is None

    def test_scope_installs_and_restores(self):
        outer = enable()
        with telemetry() as inner:
            assert active() is inner
            assert inner is not outer
        assert active() is outer

    def test_scope_exports_on_exit(self, tmp_path):
        with telemetry(out_dir=tmp_path) as t:
            t.count("x")
        assert (tmp_path / "trace.jsonl").is_file()
        assert (tmp_path / "trace.chrome.json").is_file()
        assert (tmp_path / "summary.txt").is_file()

    def test_env_var_contract(self):
        """REPRO_TELEMETRY=1 installs a collector at import time."""
        code = (
            "from repro.telemetry.registry import telemetry_enabled; "
            "print(telemetry_enabled())"
        )
        env = dict(os.environ, REPRO_TELEMETRY="1")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout.strip() == "True"
        env["REPRO_TELEMETRY"] = "0"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.stdout.strip() == "False"


class TestDisabledPath:
    def test_disabled_guards_report_off(self):
        assert active() is None
        assert not observing()

    def test_disabled_path_allocates_nothing(self):
        """The hot-loop guard must not allocate when telemetry is off.

        Every GEMM in the LFD pipeline evaluates ``observing()`` /
        ``active()``; with both consumers off those must stay at one
        global read plus an environment probe, with zero *retained*
        allocations (``sys.getallocatedblocks`` net delta), or long
        runs would pay for instrumentation they turned off.
        """
        assert active() is None
        observing()  # warm the thread-local and env lookups
        loops = range(2000)
        gc.collect()
        before = sys.getallocatedblocks()
        for _ in loops:
            active()
            observing()
        gc.collect()
        after = sys.getallocatedblocks()
        # Tolerate a couple of blocks of interpreter noise, nothing more.
        assert after - before <= 2
