"""Exporter unit tests: Chrome trace events and metrics documents."""

import json

from repro.cli import main
from repro.ir.native import dispatch
from repro.obs.export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    chrome_trace,
    metrics_document,
    span_events,
    timeline_events,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.runtime.clock import LANE_CPU, LANE_DMA, LANE_GPU, Timeline


def _sample_tracer():
    tr = Tracer()
    with tr.span("parse", "parse"):
        pass
    with tr.span("dispatch:run#0", "execute", strategy="japonica") as sp:
        sp.set_sim(0.0, 0.25)
    tr.span("left-open")
    return tr


def _sample_timeline():
    tl = Timeline()
    dma = tl.schedule(LANE_DMA, 1.0, label="h2d")
    tl.schedule(LANE_GPU, 2.0, after=[dma], label="kernel")
    tl.schedule(LANE_CPU, 0.5, label="cpu-chunk")
    return tl


class TestSpanEvents:
    def test_complete_events_on_tick_clock(self):
        events = span_events(_sample_tracer().spans)
        assert [e["name"] for e in events] == ["parse", "dispatch:run#0"]
        for e in events:
            assert e["ph"] == "X"
            assert e["pid"] == 1
            assert e["dur"] == e["dur"]  # present
        assert events[0]["ts"] < events[1]["ts"]

    def test_open_spans_skipped(self):
        events = span_events(_sample_tracer().spans)
        assert all(e["name"] != "left-open" for e in events)

    def test_sim_interval_in_args(self):
        events = span_events(_sample_tracer().spans)
        args = events[1]["args"]
        assert args["sim_start_ms"] == 0.0
        assert args["sim_end_ms"] == 250.0
        assert args["sim_dur_ms"] == 250.0
        assert args["strategy"] == "japonica"


class TestTimelineEvents:
    def test_lane_threads_and_microseconds(self):
        events = timeline_events(_sample_timeline(), pid=2)
        metas = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {"cpu", "dma", "gpu"}
        xs = [e for e in events if e["ph"] == "X"]
        kernel = next(e for e in xs if e["name"] == "kernel")
        assert kernel["ts"] == 1e6  # starts when the transfer ends
        assert kernel["dur"] == 2e6
        assert all(e["pid"] == 2 for e in events)

    def test_lane_tids_deterministic(self):
        a = timeline_events(_sample_timeline(), pid=2)
        b = timeline_events(_sample_timeline(), pid=2)
        assert a == b


class TestNaturalLaneOrder:
    def test_numeric_suffixes_sort_numerically(self):
        tl = Timeline()
        # insertion order deliberately scrambled, 13 lanes
        for k in (10, 2, 0, 11, 1, 9, 3, 12, 7):
            tl.schedule(f"gpu{k}", 0.1, label=f"k{k}")
        tl.schedule("gpu", 0.1, label="k")
        for k in (10, 2, 1):
            tl.schedule(f"dma{k}", 0.1, label=f"x{k}")
        events = timeline_events(tl, pid=1)
        metas = [e for e in events if e["ph"] == "M"]
        names = [m["args"]["name"] for m in metas]
        assert names == [
            "dma1", "dma2", "dma10",
            "gpu", "gpu0", "gpu1", "gpu2", "gpu3",
            "gpu7", "gpu9", "gpu10", "gpu11", "gpu12",
        ]
        # tids follow that order and are contiguous
        assert [m["tid"] for m in metas] == list(range(13))

    def test_timeline_lanes_accessor_uses_natural_order(self):
        tl = Timeline()
        for lane in ("gpu10", "gpu2", "cpu", "dma3", "gpu"):
            tl.schedule(lane, 0.5)
        assert tl.lanes() == ["cpu", "dma3", "gpu", "gpu2", "gpu10"]


class TestMultiDeviceRoundTrip:
    """chrome_trace must round-trip a --devices 4 run: every device lane
    appears exactly once, with stable pid/tid, and the event counts
    reconcile with ``Timeline.events``."""

    def _run_timeline(self):
        from repro.workloads.registry import get

        result = get("VectorAdd").run("japonica", devices=4)
        (_, res), = result.loop_results
        return res.timeline

    def test_every_device_lane_exactly_once(self):
        tl = self._run_timeline()
        doc = chrome_trace((), [("japonica:run#0", tl)])
        metas = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        names = [m["args"]["name"] for m in metas]
        assert len(names) == len(set(names))  # no duplicated lane threads
        lanes = {e.lane for e in tl.events}
        assert set(names) == lanes
        for k in range(1, 4):
            assert f"gpu{k}" in names and f"dma{k}" in names
        assert "gpu" in names and "dma" in names  # device 0 lanes

    def test_pid_tid_mapping_stable(self):
        tl = self._run_timeline()
        a = chrome_trace((), [("t", tl)])["traceEvents"]
        b = chrome_trace((), [("t", tl)])["traceEvents"]
        assert a == b
        key = {}
        for e in a:
            if e["ph"] == "M" and e["name"] == "thread_name":
                key[e["args"]["name"]] = (e["pid"], e["tid"])
        assert len({v for v in key.values()}) == len(key)

    def test_event_counts_reconcile(self):
        tl = self._run_timeline()
        doc = chrome_trace((), [("t", tl)])
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(tl.events)
        # per-lane counts match too, via the tid mapping
        tid_of = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for lane in {e.lane for e in tl.events}:
            want = sum(1 for e in tl.events if e.lane == lane)
            got = sum(1 for e in xs if e["tid"] == tid_of[lane])
            assert got == want, lane


class TestChromeTrace:
    def test_document_layout(self):
        doc = chrome_trace(
            _sample_tracer().spans,
            [("japonica:run#0", _sample_timeline())],
            metadata={"workload": "VectorAdd"},
        )
        assert doc["otherData"]["schema"] == TRACE_SCHEMA
        assert doc["otherData"]["workload"] == "VectorAdd"
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, 2}  # pipeline + one timeline process
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"pipeline", "japonica:run#0"}

    def test_multiple_timelines_get_distinct_pids(self):
        doc = chrome_trace(
            (), [("a", _sample_timeline()), ("b", _sample_timeline())]
        )
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, 2, 3}

    def test_written_file_is_stable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(
            str(path), _sample_tracer().spans,
            [("t", _sample_timeline())],
        )
        first = path.read_bytes()
        write_chrome_trace(
            str(path), _sample_tracer().spans,
            [("t", _sample_timeline())],
        )
        assert path.read_bytes() == first
        json.loads(first)  # valid JSON


class TestMetricsDocument:
    def test_document_and_file(self, tmp_path):
        m = MetricsRegistry()
        m.counter("gpu.launches").inc(3)
        m.gauge("scheduler.boundary").set(0.75)
        doc = metrics_document(m, extra={"workload": "X"})
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["workload"] == "X"
        assert doc["counters"]["gpu.launches"] == 3.0
        path = tmp_path / "metrics.json"
        write_metrics_json(str(path), m)
        loaded = json.loads(path.read_text())
        assert loaded["gauges"]["scheduler.boundary"] == 0.75

    def test_repeat_run_writes_identical_bytes(self, tmp_path, monkeypatch):
        """Two ``repro run --metrics`` of Crypt, each compiling its
        lock-step kernels into a fresh kernel cache, write the same file:
        host wall time (a compile's seconds) never enters the registry."""
        files = []
        for k in range(2):
            monkeypatch.setattr(
                dispatch, "GLOBAL_KERNEL_CACHE", dispatch.KernelCache()
            )
            path = tmp_path / f"metrics{k}.json"
            assert main([
                "run", "Crypt", "--strategies", "japonica",
                "--metrics", str(path),
            ]) == 0
            assert dispatch.GLOBAL_KERNEL_CACHE.compiles["lockstep"] > 0
            files.append(path.read_bytes())
        assert files[0] == files[1]
