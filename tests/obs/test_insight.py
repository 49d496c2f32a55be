"""Trace-insight unit tests: critical path, attribution, diff, HTML."""

import json

from repro.obs.insight import (
    INSIGHT_SCHEMA,
    analyze_run,
    analyze_timeline,
    classify_event,
    critical_path,
    diff_reports,
    lane_attribution,
    overlap_stats,
    render_diff,
    render_html,
    run_report,
    write_report_json,
)
from repro.obs.distrib import adopt_spans, open_span_docs, span_doc
from repro.obs.export import chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import PLANE_HOST, Tracer
from repro.runtime.clock import LANE_CPU, LANE_DMA, LANE_GPU, Timeline


def _pipeline_timeline():
    """h2d -> kernel chain with a shorter concurrent CPU event."""
    tl = Timeline()
    dma = tl.schedule(LANE_DMA, 1.0, label="h2d#0")
    k = tl.schedule(LANE_GPU, 2.0, after=[dma], label="kernel#0")
    tl.schedule(LANE_CPU, 0.5, label="cpu-mt")
    tl.schedule(LANE_DMA, 0.25, after=[k], label="d2h")
    return tl


class TestCriticalPath:
    def test_empty_timeline(self):
        cp = critical_path(Timeline())
        assert cp.length_s == 0.0
        assert cp.slack_s == 0.0
        assert cp.events == ()

    def test_chain_through_dependencies(self):
        tl = _pipeline_timeline()
        cp = critical_path(tl)
        # the h2d -> kernel -> d2h chain is the whole makespan
        assert [e.label for e in cp.events] == ["h2d#0", "kernel#0", "d2h"]
        assert cp.length_s == tl.makespan
        assert cp.slack_s == 0.0
        assert cp.lane_contrib_s == {"dma": 1.25, "gpu": 2.0}

    def test_bounded_by_makespan_and_lane_busy(self):
        tl = _pipeline_timeline()
        cp = critical_path(tl)
        assert cp.length_s <= tl.makespan
        assert cp.length_s >= max(
            tl.lane_busy(lane) for lane in tl.lanes()
        )

    def test_chains_cross_lanes(self):
        tl = Timeline()
        # gpu busy 2.0 split around a wait; cpu solid 1.5 overlapping "a"
        tl.schedule(LANE_GPU, 1.0, label="a")
        tl.schedule(LANE_GPU, 1.0, not_before=3.0, label="b")
        tl.schedule(LANE_CPU, 1.5, label="c")
        cp = critical_path(tl)
        # best chain crosses lanes: c (ends 1.5) -> b (starts 3.0) = 2.5,
        # beating the same-lane chain a -> b = 2.0
        assert cp.length_s == 2.5
        assert cp.slack_s == tl.makespan - 2.5
        assert [e.label for e in cp.events] == ["c", "b"]
        assert cp.lane_contrib_s == {"cpu": 1.5, "gpu": 1.0}

    def test_deterministic_under_reconstruction(self):
        a = critical_path(_pipeline_timeline())
        b = critical_path(_pipeline_timeline())
        assert [e.id for e in a.events] == [e.id for e in b.events]
        assert a.length_s == b.length_s


class TestAttribution:
    def test_bucket_classification(self):
        tl = Timeline()
        cases = {
            "kernel#0": "compute",
            "run#3*": "steal",
            "h2d#0": "dma",
            "commit-prefix@128": "speculation_abort",
            "cpu-seq@64": "speculation_abort",
            "kernel#0-drain1": "fault_recovery",
            "shrink@0": "fault_recovery",
            "d2h-drain0": "fault_recovery",
        }
        for label, want in cases.items():
            lane = LANE_DMA if label.startswith(("h2d", "d2h")) else LANE_GPU
            e = tl.schedule(lane, 0.1, label=label)
            assert classify_event(e) == want, label

    def test_buckets_sum_to_makespan(self):
        tl = _pipeline_timeline()
        lanes = lane_attribution(tl)
        assert set(lanes) == {"cpu", "dma", "gpu"}
        for lane, buckets in lanes.items():
            assert abs(sum(buckets.values()) - tl.makespan) <= 1e-15
            assert buckets["idle"] >= 0.0
        assert lanes["dma"]["dma"] == 1.25
        assert lanes["gpu"]["compute"] == 2.0

    def test_overlap_stats(self):
        tl = Timeline()
        tl.schedule(LANE_GPU, 2.0, label="k")          # [0, 2)
        tl.schedule(LANE_CPU, 1.0, not_before=1.0, label="c")  # [1, 2)
        ov = overlap_stats(tl)
        assert ov["overlap_s"] == 1.0
        assert ov["overlap_ratio"] == 0.5
        assert ov["avg_parallelism"] == 1.5
        assert ov["max_parallelism"] == 2

    def test_empty_timeline_overlap(self):
        ov = overlap_stats(Timeline())
        assert ov["overlap_s"] == 0.0
        assert ov["max_parallelism"] == 0


class TestAnalyzeRun:
    def _metrics(self):
        m = MetricsRegistry()
        m.counter("tls.subloops").inc(8)
        m.counter("tls.violations").inc(2)
        m.counter("tls.relaunches").inc(1)
        m.counter("tls.cpu_handoffs").inc(1)
        m.counter("tls.committed_iterations").inc(500)
        m.counter("tls.squashed_iterations").inc(12)
        m.counter("tls.cpu_iterations").inc(32)
        m.counter("scheduler.stealing.tasks").inc(16)
        m.counter("scheduler.stealing.steals").inc(4)
        m.counter("scheduler.stealing.batches").inc(2)
        m.counter("scheduler.stealing.dispatches").inc(1)
        m.counter("scheduler.stealing.steal_time_s").inc(0.25)
        return m

    def test_waterfall_and_steal_summary(self):
        tl = Timeline()
        tl.schedule(LANE_GPU, 0.25, label="shrink@0")
        tl.schedule(LANE_GPU, 0.5, label="run#1*")
        section = analyze_run(
            [("t", tl)], metrics=self._metrics(), sim_time_s=0.75
        )
        spec = section["speculation"]
        assert spec["subloops_attempted"] == 8
        assert spec["subloops_clean"] == 6
        assert spec["shrinks"] == 1
        assert spec["iterations"]["squashed"] == 12
        steal = section["stealing"]
        assert steal["steal_ratio"] == 0.25
        assert steal["stolen_busy_s"] == 0.5
        assert steal["steal_time_s"] == 0.25
        assert section["sim_time_s"] == 0.75
        assert section["metrics"]["counters"]["tls.subloops"] == 8

    def test_timeline_doc_shape(self):
        doc = analyze_timeline(_pipeline_timeline())
        assert doc["events"] == 4
        assert doc["critical_path"]["n_events"] == 3
        assert doc["critical_path"]["events"][0]["label"] == "h2d#0"
        assert set(doc["lanes"]) == {"cpu", "dma", "gpu"}
        assert 0.0 < doc["lanes"]["gpu"]["utilization"] <= 1.0

    def test_run_report_document(self, tmp_path):
        section = analyze_run([("t", _pipeline_timeline())])
        report = run_report({"W": section}, meta={"devices": 1})
        assert report["schema"] == INSIGHT_SCHEMA
        assert report["totals"]["workloads"] == 1
        path = tmp_path / "r.json"
        write_report_json(str(path), report)
        first = path.read_bytes()
        write_report_json(str(path), report)
        assert path.read_bytes() == first
        assert json.loads(first)["meta"]["devices"] == 1


class TestPlanes:
    """Reports keep the ``sim`` plane by declaration, not by name."""

    def test_declared_plane_decides_what_a_report_keeps(self):
        m = MetricsRegistry()
        m.counter("tls.subloops", PLANE_HOST).inc(3)
        m.gauge("scheduler.boundary", PLANE_HOST).set(0.5)
        m.histogram("gpu.divergence", PLANE_HOST).observe(2.0)
        m.counter("kernel.x").inc(7)
        m.counter("gpu.launches").inc(2)
        tr = Tracer()
        with tr.span("dispatch:run#0", "execute", plane=PLANE_HOST):
            pass
        with tr.span("promote:k", "kernel"):
            pass
        section = analyze_run([("t", _pipeline_timeline())], m, tr)
        assert section["metrics"] == {
            "counters": {"gpu.launches": 2.0, "kernel.x": 7.0},
            "gauges": {},
            "histograms": {},
        }
        assert section["phases"] == {"kernel": {"count": 1, "sim_s": 0.0}}
        # a host counter is still a counter everywhere else
        assert m.to_dict()["counters"]["tls.subloops"] == 3.0

    def test_plane_survives_merge_and_span_adoption(self):
        m = MetricsRegistry()
        m.counter("serve.jobs", PLANE_HOST).inc()
        m.counter("gpu.launches").inc()
        merged = MetricsRegistry().merge(m)
        assert merged.counter("serve.jobs").plane == PLANE_HOST
        assert merged.counter("gpu.launches").plane == "sim"
        worker = Tracer()
        with worker.span("worker:job", "serve.worker", plane=PLANE_HOST):
            with worker.span("parse", "parse"):
                pass
        service = Tracer()
        adopt_spans(service, [span_doc(s) for s in worker.spans], None)
        assert [s.plane for s in service.spans] == [PLANE_HOST, "sim"]

    def test_no_export_writes_the_plane(self):
        tr = Tracer()
        with tr.span("promote:k", "kernel", plane=PLANE_HOST):
            pass
        tr.span("serve.job", "serve", plane=PLANE_HOST)
        assert "plane" not in open_span_docs(tr)[0]
        assert "plane" not in json.dumps(chrome_trace(tr.spans))
        m = MetricsRegistry()
        m.counter("serve.jobs", PLANE_HOST).inc()
        assert "plane" not in json.dumps(m.to_dict())


def _report(scale=1.0):
    tl = Timeline()
    dma = tl.schedule(LANE_DMA, 1.0 * scale, label="h2d#0")
    tl.schedule(LANE_GPU, 2.0 * scale, after=[dma], label="kernel#0")
    section = analyze_run([("t", tl)], sim_time_s=tl.makespan)
    return run_report({"W": section}, meta={})


class TestDiff:
    def test_identical_reports_ok(self):
        d = diff_reports(_report(), _report(), threshold=2.0)
        assert d["verdict"] == "ok"
        assert d["regressions"] == []
        tl = d["workloads"]["W"]["timelines"]["t"]
        assert tl["critical_path"]["ratio"] == 1.0

    def test_injected_3x_slowdown_fails(self):
        d = diff_reports(_report(), _report(scale=3.0), threshold=2.0)
        assert d["verdict"] == "regression"
        assert any("critical_path 3.00x" in r for r in d["regressions"])
        assert any("makespan 3.00x" in r for r in d["regressions"])
        text = render_diff(d)
        assert "REGRESSION" in text

    def test_3x_speedup_is_improvement_not_failure(self):
        d = diff_reports(_report(scale=3.0), _report(), threshold=2.0)
        assert d["verdict"] == "ok"
        tl = d["workloads"]["W"]["timelines"]["t"]
        assert tl["critical_path"]["verdict"] == "improvement"

    def test_within_threshold_ok(self):
        d = diff_reports(_report(), _report(scale=1.5), threshold=2.0)
        assert d["verdict"] == "ok"

    def test_added_and_removed_workloads_do_not_fail(self):
        a = _report()
        b = _report()
        b["workloads"]["X"] = b["workloads"]["W"]
        d = diff_reports(a, b, threshold=2.0)
        assert d["workloads"]["X"]["status"] == "added"
        assert d["verdict"] == "ok"
        d = diff_reports(b, a, threshold=2.0)
        assert d["workloads"]["X"]["status"] == "removed"
        assert d["verdict"] == "ok"

    def test_tiny_timings_below_floor_ignored(self):
        d = diff_reports(_report(scale=1e-13), _report(scale=5e-13))
        assert d["verdict"] == "ok"

    def test_threshold_must_exceed_one(self):
        import pytest

        with pytest.raises(ValueError):
            diff_reports(_report(), _report(), threshold=1.0)


class TestHtml:
    def test_deterministic_and_self_contained(self):
        report = _report()
        a = render_html(report)
        b = render_html(report)
        assert a == b
        assert a.startswith("<!DOCTYPE html>")
        # no external assets: no http(s) URLs, no <script src>, no <link>
        assert "http://" not in a and "https://" not in a
        assert "<link" not in a and "src=" not in a
        assert "kernel#0" in a
        assert "critical path" in a

    def test_escapes_labels(self):
        tl = Timeline()
        tl.schedule(LANE_GPU, 1.0, label="<evil>&")
        section = analyze_run([("t", tl)], sim_time_s=1.0)
        html = render_html(run_report({"W": section}, meta={}))
        assert "<evil>" not in html
        assert "&lt;evil&gt;&amp;" in html
