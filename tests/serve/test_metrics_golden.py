"""Golden ``/v1/metrics`` output of a fixed set of registries.

The committed fixtures hold the Prometheus text and the JSON document
the service renders for one service registry folded with three worker
registries.  The values are seeded pseudo-random non-dyadic floats,
so float addition rounds and the fold order shows.  Some values lie
below the first histogram bucket or past the last, and the set has
an unwritten gauge, an empty histogram and a tenant name that needs
escaping.  The fixtures pin the merge, the quantiles and both renderings
byte for byte.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.serve import CompilationService, ServeConfig

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PROM_FIXTURE = FIXTURES / "serve_metrics_v1.prom"
JSON_FIXTURE = FIXTURES / "serve_metrics_v1.json"

SERVICE_COUNTERS = (
    "serve.admitted", "serve.ok", "serve.failed", "serve.rejected",
    "serve.shed", "serve.breaker_open", "serve.rejected.queue_full",
    "serve.retry.attempts", "serve.retry.backoff_s", "serve.slo.good",
    "serve.slo.bad", "serve.cache.hits", "serve.cache.misses",
)
SERVICE_HISTOGRAMS = (
    "serve.wall_ms", "serve.tenant.acme.wall_ms",
    "serve.tenant.zeta.wall_ms", 'serve.tenant.we"ird\\.wall_ms',
)
WORKER_COUNTERS = (
    "serve.worker.jobs", "serve.worker.status.ok", "serve.admitted",
    "gpu.launches", "transfer.h2d.bytes", "cache.hits",
)
WORKER_HISTOGRAMS = (
    "serve.worker.wall_ms", "serve.tenant.acme.wall_ms",
    "profile.td_density", "gpu.divergence",
)


def _value(rng: random.Random) -> float:
    """A non-dyadic float from 1e-13 (below the first bucket) to 1e13
    (past the last)."""
    return rng.random() * 10.0 ** rng.randint(-13, 13)


def _fill(registry, rng, counters, gauges, histograms) -> None:
    for name in counters:
        for _ in range(rng.randint(1, 4)):
            registry.counter(name).inc(rng.random() * 100.0)
    for name in gauges:
        registry.gauge(name).set(rng.random() * 32.0)
    for name in histograms:
        for _ in range(rng.randint(1, 40)):
            registry.histogram(name).observe(_value(rng))


def fixture_registries() -> tuple:
    """``(service registry, {worker name: registry})``, fully seeded."""
    rng = random.Random(20261017)
    service = MetricsRegistry()
    _fill(service, rng, SERVICE_COUNTERS,
          ("serve.queue_depth", "serve.degrade.level"), SERVICE_HISTOGRAMS)
    service.gauge("serve.unwritten")
    service.histogram("serve.empty_ms")
    workers = {}
    # inserted out of name order: the fold must sort them
    for name in ("thread-w2", "thread-w1", "proc-w0"):
        reg = MetricsRegistry()
        _fill(reg, rng, WORKER_COUNTERS,
              ("scheduler.boundary", "serve.queue_depth"),
              WORKER_HISTOGRAMS)
        workers[name] = reg
    workers["thread-w1"].histogram("serve.empty_ms")
    return service, workers


def fixture_service(ship) -> CompilationService:
    """A service whose registry and worker copies are the fixture set;
    ``ship`` turns a worker registry into what the worker sends."""
    service_registry, workers = fixture_registries()
    service = CompilationService(ServeConfig(workers=1))
    service.metrics = service_registry
    for name, registry in workers.items():
        service._worker_metrics[name] = ship(registry)
    return service


def render(service: CompilationService) -> tuple[str, str]:
    """(Prometheus text, JSON document text) as the fixtures store them."""
    doc = json.dumps(service.metrics_document(), indent=1, sort_keys=True)
    return service.metrics_prometheus(), doc + "\n"


def _shipped_copy(registry: MetricsRegistry) -> MetricsRegistry:
    # what a traced worker sends back with each result
    return MetricsRegistry().merge(registry)


def test_prometheus_text_matches_golden_fixture():
    text, _ = render(fixture_service(_shipped_copy))
    assert text == PROM_FIXTURE.read_text()


def test_json_document_matches_golden_fixture():
    _, doc = render(fixture_service(_shipped_copy))
    assert doc == JSON_FIXTURE.read_text()


def test_fixture_exercises_every_edge():
    text = PROM_FIXTURE.read_text()
    doc = json.loads(JSON_FIXTURE.read_text())
    assert doc["workers_reporting"] == ["proc-w0", "thread-w1", "thread-w2"]
    assert "serve.unwritten" not in doc["gauges"]
    assert doc["histograms"]["serve.empty_ms"]["count"] == 0
    assert set(doc["tenants"]) == {"acme", "zeta", 'we"ird\\'}
    assert 'tenant="we\\"ird\\\\"' in text
    assert 'le="9.094947017729282e-13"' in text  # the first bucket
    assert 'le="+Inf"} ' in text
