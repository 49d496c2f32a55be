"""``--check BASELINE`` gates against the baseline as it was before the
run, even when ``--out`` names the same file.

Both benches that write a report and check one are covered:
``bench_host_perf.py`` (warm-cache wall-clock) and ``bench_serve.py``
(tail amplification).  The measurements are stubbed: each case fixes
the one figure its check reads and asserts the verdict.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(
        name, BENCHMARKS / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- bench_host_perf: warm-cache wall-clock ------------------------------


def cache_row(total_s: float) -> dict:
    return {
        "compile_s": total_s / 2, "run_s": total_s / 2, "total_s": total_s,
        "sim_time_s": 1.0, "cache_hits": 2, "cache_misses": 0,
    }


def cache_leg(cold_s: float, warm_s: float) -> dict:
    return {"workload": "stub", "cold": cache_row(cold_s),
            "warm": cache_row(warm_s)}


def stub_host_perf(monkeypatch, bench, warm_s: float) -> None:
    """Every measure_* returns a passing leg; warm cache takes ``warm_s``."""
    monkeypatch.setattr(bench, "measure_profiling", lambda n: {
        "scalar_s": 1.0, "columnar_s": 0.1, "speedup": 10.0,
        "scalar_log_identical": True,
    })
    monkeypatch.setattr(bench, "measure_cache", lambda: cache_leg(1.0, warm_s))
    monkeypatch.setattr(bench, "measure_multidevice", lambda: {})
    monkeypatch.setattr(bench, "measure_kernel_tiers", lambda n: {
        "interp_s": 1.0, "src_s": 0.1, "src_speedup": 10.0,
        "identical": True, "control_flow": {},
    })
    monkeypatch.setattr(bench, "measure_insight", lambda: {})


@pytest.mark.parametrize("warm_s,verdict", [(0.3, 1), (0.1, 0)])
def test_host_perf_checks_the_committed_warm_time(
    monkeypatch, tmp_path, warm_s, verdict
):
    bench = load_bench("bench_host_perf")
    path = tmp_path / "BENCH_HOSTPERF.json"
    path.write_text(json.dumps({"cache": cache_leg(1.0, 0.1)}))
    stub_host_perf(monkeypatch, bench, warm_s)
    # 3x the baseline's 0.1 s fails; an equal run passes
    argv = ["--n", "32768", "--check", str(path), "--out", str(path)]
    assert bench.main(argv) == verdict
    # the report still lands in --out
    doc = json.loads(path.read_text())
    assert doc["cache"]["warm"]["total_s"] == warm_s


# -- bench_serve: tail amplification -------------------------------------


def serve_report(p99_s: float) -> dict:
    return {
        "latency": {"p50_s": 0.01, "p99_s": p99_s},
        "requests_per_s": 1.0, "statuses": {"ok": 1},
        "shed_rate": 0.0, "reject_rate": 0.0, "cache_hit_rate": 0.5,
        "retries": {"worker_deaths": 0}, "breakers": {"trips": 0},
        "ledger": {"admitted": 1, "lost": 0, "duplicated": 0},
    }


@pytest.mark.parametrize("p99_s,verdict", [(0.2, 1), (0.02, 0)])
def test_serve_checks_the_committed_tail(
    monkeypatch, tmp_path, p99_s, verdict
):
    bench = load_bench("bench_serve")
    path = tmp_path / "BENCH_SERVE.json"
    path.write_text(json.dumps(serve_report(0.02)))
    monkeypatch.setattr(bench, "build_requests", lambda args: [])
    monkeypatch.setattr(
        bench, "run_leg", lambda args, requests, trace: ([], 1.0, {})
    )
    monkeypatch.setattr(
        bench, "summarize", lambda *args, **kw: serve_report(p99_s)
    )
    # p99/p50 of 20 against the baseline's 2 (allowed 6) fails
    argv = ["--skip-obs", "--check", str(path), "--out", str(path)]
    assert bench.main(argv) == verdict
    assert json.loads(path.read_text())["latency"]["p99_s"] == p99_s
