"""Distributed observability: request-scoped tracing across the serve
plane, cross-process metric merge, and the post-mortem flight recorder.

Three pieces, one contract: trace documents and flight dumps carry only
the logical and simulated clocks (and sequence numbers), so they are
byte-deterministic for a deterministic scenario.  Host wall time enters
only the serve plane's own ``host`` instruments — the ``serve.*wall_ms``
histograms and the ``serve.slo.good``/``serve.slo.bad`` counters that
judge them — so ``/v1/metrics`` is deterministic except for those.

* :mod:`repro.obs.distrib.tracecontext` — a :class:`TraceContext` is
  minted per job at the HTTP edge, threaded through every serve gate,
  serialized across the worker-pool process boundary, and adopted by the
  worker's pipeline tracer, so one job renders one span tree from HTTP
  accept through retries to settlement.
* metric merge — traced workers ship a merged copy of their registry
  back with results and the service folds them with
  :meth:`~repro.obs.metrics.MetricsRegistry.merge`, feeding the live
  ``/v1/metrics`` endpoint (:mod:`repro.obs.distrib.prom` renders
  Prometheus text).
* :mod:`repro.obs.distrib.flight` — a bounded per-worker ring buffer of
  job event records, dumped as a ``repro.flight/v1`` bundle on worker
  death, breaker trip, or shed (``repro tail`` renders it).
"""

from .flight import (
    FLIGHT_SCHEMA,
    LANE_SERVICE,
    FlightRecorder,
    render_flight,
    write_flight_dump,
)
from .prom import render_prometheus
from .tracecontext import (
    JobTrace,
    TraceContext,
    adopt_spans,
    close_open_spans,
    mint_trace_id,
    open_span_docs,
    span_doc,
)

__all__ = [
    "FLIGHT_SCHEMA",
    "LANE_SERVICE",
    "FlightRecorder",
    "JobTrace",
    "TraceContext",
    "adopt_spans",
    "close_open_spans",
    "mint_trace_id",
    "open_span_docs",
    "render_flight",
    "render_prometheus",
    "span_doc",
    "write_flight_dump",
]
