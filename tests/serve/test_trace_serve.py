"""Distributed-tracing acceptance: one job, one tree, byte-identical.

The headline scenario from the PR: a single served job (``devices=4``)
under seeded worker-death chaos exports **one** Chrome trace containing
the HTTP accept span, all four gate verdicts, every worker attempt
(killed ones marked ``status=killed``), and the worker's pipeline phase
spans — all under one deterministic ``trace_id`` — and the exported
document is byte-identical across two runs of the same scenario.

The worker's side of the graft is tested directly: a traced worker keeps
no spans once a job's spans are shipped, and a report job's isolated
spans are grafted under its ``worker:job`` span.
"""

from __future__ import annotations

import asyncio
import json
import threading

from repro.obs.distrib import TraceContext, mint_trace_id
from repro.serve import CompilationService, ServeConfig, ServeServer
from repro.serve.client import ServeClient
from repro.serve.jobs import JobSpec
from repro.serve.worker import WorkerRuntime

JOB = {
    "tenant": "trace-t",
    "kind": "run",
    "workload": "VectorAdd",
    "n": 32,
    "seed": 7,
    "devices": 4,
    "job_id": "job-trace-acceptance",
}

CONFIG = dict(
    workers=1,
    backend="thread",
    trace=True,
    faults="serve.worker@1+2",   # kill the workers of attempts 1 and 2
    fault_seed=1234,
    retry_base_s=0.001,
    retry_cap_s=0.01,
)


def _serve_scenario() -> tuple[dict, dict]:
    """Run the scenario on a fresh server; return (response, trace doc)."""
    server = ServeServer(
        CompilationService(ServeConfig(**CONFIG)), port=0
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=30)
    try:
        client = ServeClient(port=server.port)
        status, doc = client.submit(dict(JOB))
        assert status == 200, doc
        trace = client.trace(JOB["job_id"])
        return doc, trace
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(
            timeout=60
        )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)


def _spans(trace: dict) -> list[dict]:
    return [e for e in trace["traceEvents"] if e.get("ph") == "X"]


def test_one_job_exports_one_complete_trace_tree():
    doc, trace = _serve_scenario()

    # the response surfaces the deterministic trace id
    expected_id = mint_trace_id(JOB["tenant"], JOB["job_id"])
    assert doc["trace_id"] == expected_id
    assert doc["status"] == "ok"
    assert doc["attempts"] == 3  # two killed workers, then success
    assert trace["otherData"]["trace_id"] == expected_id
    assert trace["otherData"]["job_id"] == JOB["job_id"]

    spans = _spans(trace)
    names = [sp["name"] for sp in spans]

    # HTTP accept is the root of the tree
    assert "http:POST /v1/jobs" in names

    # all four gate verdicts, with outcome attributes
    by_name = {sp["name"]: sp for sp in spans}
    assert by_name["gate:breaker"]["args"]["outcome"] == "allow"
    assert by_name["gate:ladder"]["args"]["outcome"] == 0
    assert by_name["gate:admission"]["args"]["outcome"] == "admit"
    assert by_name["gate:deadline"]["args"]["outcome"] == "stamped"

    # every worker attempt appears; the killed ones say so
    assert by_name["attempt:1"]["args"]["status"] == "killed"
    assert by_name["attempt:2"]["args"]["status"] == "killed"
    assert by_name["attempt:3"]["args"]["outcome"] == "ok"

    # the surviving worker's pipeline phases were grafted in
    assert "worker:job" in names
    assert "parse" in names
    assert any(n.startswith("analyze") for n in names)
    assert any(n.startswith("translate") for n in names)
    assert any(n.startswith("dispatch") for n in names)

    # one tree: every span is a complete event (nothing left open — the
    # exporter silently drops open spans, so count the expected set)
    assert len(spans) >= 10


def test_trace_tree_is_byte_identical_across_runs():
    _, trace_a = _serve_scenario()
    _, trace_b = _serve_scenario()
    blob_a = json.dumps(trace_a, sort_keys=True).encode()
    blob_b = json.dumps(trace_b, sort_keys=True).encode()
    assert blob_a == blob_b


def test_untraced_job_has_no_trace_and_no_trace_id():
    config = ServeConfig(workers=1, backend="thread")  # trace off
    server = ServeServer(CompilationService(config), port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=30)
    try:
        client = ServeClient(port=server.port)
        status, doc = client.submit({
            "tenant": "plain-t", "workload": "VectorAdd",
            "job_id": "job-untraced",
        })
        assert status == 200
        assert "trace_id" not in doc
        status, err = client._request("GET", "/v1/trace/job-untraced")
        assert status == 404
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(
            timeout=60
        )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)


def _traced_jobs(runtime, count: int, start: int = 0) -> list:
    """Run ``count`` traced VectorAdd jobs; return their shipped spans."""
    shipped = []
    for k in range(start, start + count):
        job = JobSpec(tenant="t", workload="VectorAdd", job_id=f"j{k}")
        result = runtime.execute(
            job, trace=TraceContext.mint(job.tenant, job.job_id)
        )
        assert result.status == "ok", result.error
        shipped.append(result.__dict__["trace_spans"])
    return shipped


def test_traced_worker_does_not_retain_shipped_spans():
    runtime = WorkerRuntime(trace=True)
    retained = []
    for rnd in range(3):
        shipped = _traced_jobs(runtime, 10, start=10 * rnd)
        assert all(docs[0]["name"] == "worker:job" for docs in shipped)
        retained.append(len(runtime.obs.tracer.spans))
    assert retained == [0, 0, 0]


def test_report_job_spans_graft_under_the_worker_job_span():
    runtime = WorkerRuntime(trace=True)
    _traced_jobs(runtime, 2)
    job = JobSpec(tenant="t", workload="VectorAdd", job_id="rep",
                  report=True)
    result = runtime.execute(job, trace=TraceContext.mint("t", "rep"))
    docs = result.__dict__["trace_spans"]
    root = docs[0]
    assert root["name"] == "worker:job" and root["plane"] == "host"
    # the report run's own pipeline spans hang under worker:job, after it
    report_roots = [d for d in docs[1:] if d["parent_id"] == root["id"]]
    assert any(d["name"].startswith("dispatch:") for d in report_roots)
    assert all(d["tick_start"] > root["tick_end"] for d in report_roots)
    assert [d["id"] for d in docs] == list(
        range(root["id"], root["id"] + len(docs))
    )
    assert len(runtime.obs.tracer.spans) == 0
