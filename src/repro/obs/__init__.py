"""Observability plane: pipeline tracing, metrics, deterministic exports.

See :mod:`repro.obs.tracer` (spans), :mod:`repro.obs.metrics`
(counters/gauges/histograms + the :class:`Instrumentation` bundle),
:mod:`repro.obs.export` (Chrome trace-event and metrics JSON) and
:mod:`repro.obs.insight` (RunReport: critical paths, utilization
attribution, regression diffing).
"""

from .export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    chrome_trace,
    metrics_document,
    span_events,
    timeline_events,
    write_chrome_trace,
    write_metrics_json,
)
from .insight import (
    INSIGHT_SCHEMA,
    analyze_run,
    critical_path,
    diff_reports,
    lane_attribution,
    render_html,
    run_report,
    write_html,
    write_report_json,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    Instrumentation,
    MetricsRegistry,
    NULL_INSTRUMENTATION,
    NULL_METRICS,
    NullMetricsRegistry,
    record_resilience,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    PHASE_ANALYZE,
    PHASE_EXECUTE,
    PHASE_PARSE,
    PHASE_PROFILE,
    PHASE_SCHEDULE,
    PHASE_TRANSLATE,
    PLANE_HOST,
    PLANE_SIM,
    Span,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "INSIGHT_SCHEMA",
    "Instrumentation",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_INSTRUMENTATION",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "PHASE_ANALYZE",
    "PHASE_EXECUTE",
    "PHASE_PARSE",
    "PHASE_PROFILE",
    "PHASE_SCHEDULE",
    "PHASE_TRANSLATE",
    "PLANE_HOST",
    "PLANE_SIM",
    "Span",
    "TRACE_SCHEMA",
    "Tracer",
    "analyze_run",
    "chrome_trace",
    "critical_path",
    "diff_reports",
    "lane_attribution",
    "metrics_document",
    "record_resilience",
    "render_html",
    "run_report",
    "span_events",
    "timeline_events",
    "write_chrome_trace",
    "write_html",
    "write_metrics_json",
    "write_report_json",
]
