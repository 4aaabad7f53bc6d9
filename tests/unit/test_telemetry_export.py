"""Exporter round-trip tests for :mod:`repro.telemetry.exporters`.

The JSONL trace must read back into exactly what was written; the
Chrome trace must be structurally valid ``trace_event`` JSON with one
lane per category, and the modelled device's kernels a second process
with one lane per kernel kind; the text summary must mention every
counter.
"""

import json

import pytest

from repro.blas.modes import ComputeMode
from repro.blas.verbose import VerboseRecord
from repro.telemetry import (
    Telemetry,
    export_all,
    read_chrome_trace,
    read_jsonl,
    summary_table,
    telemetry,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.exporters import _CAT_LANES, _KIND_LANES, chrome_trace_events

pytestmark = pytest.mark.telemetry


def _populated_collector():
    t = Telemetry()
    t.count("blas.plan.prepare", 3, result="hit")
    t.count("blas.plan.prepare", 1, result="miss")
    t.count("lfd.qd_steps", 5)
    t.observe("blas.seconds", 1.5e-4)
    t.observe("blas.seconds", 2.5e-4)
    with t.span("qd_step", cat="lfd", t_au=0.1):
        pass
    t.instant("checkpoint", cat="app", step=2)
    t.blas_call(
        VerboseRecord(
            routine="cgemm", trans_a="N", trans_b="N", m=8, n=6, k=4,
            mode=ComputeMode.FLOAT_TO_TF32, seconds=3e-4,
            model_seconds=1e-5, site="nlp_prop",
        )
    )
    return t


class TestJsonl:
    def test_round_trip(self, tmp_path):
        t = _populated_collector()
        path = write_jsonl(t, tmp_path / "trace.jsonl")
        back = read_jsonl(path)

        assert back["meta"]["version"] == 1
        assert back["meta"]["n_events"] == len(t.events)
        assert back["meta"]["dropped_events"] == 0
        assert back["counters"] == t.counters_flat()
        assert len(back["events"]) == len(t.events)
        assert back["events"] == t.events

        snap = t.snapshot()
        assert set(back["histograms"]) == set(snap["histograms"])
        for name, hist in back["histograms"].items():
            assert hist.to_dict() == snap["histograms"][name]

    def test_one_json_object_per_line(self, tmp_path):
        path = write_jsonl(_populated_collector(), tmp_path / "t.jsonl")
        for line in path.read_text().splitlines():
            json.loads(line)

    def test_unknown_record_type_rejected(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown JSONL record type"):
            read_jsonl(bad)


class TestChromeTrace:
    def test_structure(self, tmp_path):
        t = _populated_collector()
        path = write_chrome_trace(t, tmp_path / "trace.chrome.json")
        trace = read_chrome_trace(path)

        events = trace["traceEvents"]
        processes = {
            e["pid"]: e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert processes == {1: "repro.telemetry", 2: "modelled device"}
        # One named lane per category, and per device kernel kind.
        lanes = {1: {}, 2: {}}
        for e in events:
            if e["name"] == "thread_name":
                lanes[e["pid"]][e["args"]["name"]] = e["tid"]
        assert lanes == {1: _CAT_LANES, 2: _KIND_LANES}

    def test_events_convert_to_microseconds(self):
        t = _populated_collector()
        span = next(e for e in t.events if e["ph"] == "X" and e["cat"] == "lfd")
        converted = next(
            e
            for e in chrome_trace_events(t)
            if e.get("ph") == "X" and e["cat"] == "lfd"
        )
        assert converted["ts"] == pytest.approx(span["ts"] * 1e6)
        assert converted["dur"] == pytest.approx(span["dur"] * 1e6)
        assert converted["tid"] == _CAT_LANES["lfd"]

    def test_none_args_are_stripped(self):
        t = Telemetry()
        t.blas_call(
            VerboseRecord(
                routine="cgemm", trans_a="N", trans_b="N", m=2, n=2, k=2,
                mode=ComputeMode.STANDARD, seconds=1e-5,
            )
        )
        blas = next(e for e in chrome_trace_events(t) if e.get("cat") == "blas")
        assert "model_seconds" not in blas["args"]  # was None


@pytest.fixture()
def device_collector():
    """A collector that saw three kernels booked on a device timeline."""
    from repro.gpu.timeline import Timeline

    with telemetry() as t:
        tl = Timeline()
        tl.append("cgemm", 1e-3, kind="blas", site="nlp_prop")
        tl.append("fft_forward", 2e-3, kind="app", site="lfd_step")
        tl.append("psi_h2d", 5e-4, kind="copy")
    return t


@pytest.fixture()
def device_trace(device_collector):
    """Chrome events of the three booked kernels."""
    events = chrome_trace_events(device_collector)
    return [e for e in events if e.get("cat") == "device"]


class TestDeviceTrack:
    def test_event_fields(self, device_trace):
        assert len(device_trace) == 3
        first = device_trace[0]
        assert first["name"] == "cgemm"
        assert first["ph"] == "X"
        assert first["pid"] == 2
        assert first["ts"] == 0.0
        assert first["dur"] == pytest.approx(1000.0)  # us
        assert first["args"] == {"kind": "blas", "site": "nlp_prop"}

    def test_sequential_timestamps(self, device_trace):
        assert device_trace[1]["ts"] == pytest.approx(1000.0)
        assert device_trace[2]["ts"] == pytest.approx(3000.0)

    def test_kind_lanes_distinct(self, device_trace):
        tids = [e["tid"] for e in device_trace]
        assert tids == [_KIND_LANES["blas"], _KIND_LANES["app"], _KIND_LANES["copy"]]

    def test_valid_json_roundtrip(self, device_collector, tmp_path):
        path = write_chrome_trace(device_collector, tmp_path / "trace.json")
        payload = read_chrome_trace(path)
        device = [e for e in payload["traceEvents"] if e.get("cat") == "device"]
        assert [e["name"] for e in device] == ["cgemm", "fft_forward", "psi_h2d"]
        assert payload["displayTimeUnit"] == "ms"

    def test_creates_parent_dirs(self, device_collector, tmp_path):
        paths = export_all(device_collector, tmp_path / "deep" / "out")
        assert paths["chrome"].is_file()

    def test_matches_device_timeline(self):
        # A simulation's device bookings reach the trace one for one,
        # in order, beside its measured BLAS events.
        from repro.dcmesh.simulation import Simulation, SimulationConfig
        from repro.gpu import Device

        device = Device()
        sim = Simulation(SimulationConfig.small_test(n_qd_steps=2, nscf=2), device=device)
        sim.setup()
        device.reset()
        with telemetry() as t:
            sim.run(mode="FLOAT_TO_BF16")
        events = chrome_trace_events(t)
        got = [
            (e["name"], e["ts"], e["dur"], e["args"]["kind"], e["args"]["site"])
            for e in events
            if e.get("cat") == "device"
        ]
        want = [
            (k.name, k.start * 1e6, k.duration * 1e6, k.kind, k.site)
            for k in device.timeline.events
        ]
        assert got == want and len(want) > 0
        assert {e["pid"] for e in events if e.get("cat") == "device"} == {2}
        assert any(e.get("cat") == "blas" and e["pid"] == 1 for e in events)
        # The MKL_VERBOSE view still reads the measured BLAS events only.
        assert len(t.verbose_records()) == len(t.blas_events())
        assert all(e["cat"] == "blas" for e in t.blas_events())


class TestSummary:
    def test_mentions_every_counter_and_histogram(self):
        t = _populated_collector()
        text = summary_table(t)
        for name in t.counters_flat():
            assert name in text
        for name in t.snapshot()["histograms"]:
            assert name in text
        assert "dropped" in text

    def test_empty_collector_renders(self):
        assert "telemetry summary" in summary_table(Telemetry())


class TestExportAll:
    def test_writes_all_artifacts(self, tmp_path):
        paths = export_all(_populated_collector(), tmp_path / "out")
        assert sorted(paths) == ["chrome", "jsonl", "report", "summary"]
        for path in paths.values():
            assert path.is_file()
            assert path.stat().st_size > 0
        assert read_jsonl(paths["jsonl"])["meta"]["version"] == 1
        assert "traceEvents" in read_chrome_trace(paths["chrome"])
