"""RunReport construction: structured, schema-versioned trace insight.

``analyze_run`` consumes what the observability plane already records —
``Timeline`` objects (one per traced loop execution, all ``gpu{k}`` /
``dma{k}`` / ``cpu`` lanes), the ``MetricsRegistry`` and the ``Tracer``
spans — and produces one *section*: per-timeline critical paths, lane
bucket attribution, overlap ratios, the speculation waterfall and the
steal-efficiency summary.  ``run_report`` wraps named sections (one per
workload) into the versioned document the CLI writes and the diff gate
consumes.

Every quantity is *simulated* (seconds on the discrete-event clock,
deterministic counters), never wall-clock, so a report is byte-identical
across repeated runs with the same seed — the property CI leans on to
diff against a committed baseline.  The report keeps only spans and
instruments declared on the ``sim`` plane: which engine tier ran a
kernel, how a Python function was lifted, or how the serve plane routed
a job is host machinery, so equal simulations render equal reports with
the native backend on or off, from either frontend, traced or not.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from ..tracer import PLANE_SIM
from .attribution import BUCKETS, lane_attribution, overlap_stats
from .critical_path import critical_path

#: Schema tag of the RunReport document.
INSIGHT_SCHEMA = "repro.insight/v1"

#: Critical-path events listed per timeline (the rest is summarized).
MAX_PATH_EVENTS = 48


def analyze_timeline(timeline) -> dict:
    """One timeline -> critical path + lane attribution + overlap."""
    cp = critical_path(timeline)
    lanes = lane_attribution(timeline)
    makespan = timeline.makespan
    lanes_doc = {}
    for lane, buckets in lanes.items():
        busy = timeline.lane_busy(lane)
        lanes_doc[lane] = {
            "busy_s": busy,
            "utilization": busy / makespan if makespan > 0 else 0.0,
            "buckets": {b: buckets[b] for b in BUCKETS},
        }
    return {
        "makespan_s": makespan,
        "events": len(timeline.events),
        "critical_path": {
            "length_s": cp.length_s,
            "slack_s": cp.slack_s,
            "n_events": len(cp.events),
            "lane_contrib_s": cp.lane_contrib_s,
            "events": [
                {
                    "id": e.id,
                    "lane": e.lane,
                    "label": e.label,
                    "start_s": e.start,
                    "dur_s": e.duration,
                }
                for e in cp.events[:MAX_PATH_EVENTS]
            ],
            "events_truncated": max(0, len(cp.events) - MAX_PATH_EVENTS),
        },
        "lanes": lanes_doc,
        "overlap": overlap_stats(timeline),
    }


def _counters(metrics) -> dict:
    if metrics is None:
        return {}
    return metrics.to_dict().get("counters", {})


def speculation_waterfall(metrics, timelines: Sequence) -> dict:
    """Sub-loops attempted -> committed -> aborted -> shrunk.

    Counter-backed where the TLS engine records them; shrink events only
    exist as timeline labels, so they are counted from the traces.
    """
    c = _counters(metrics)
    shrinks = sum(
        1
        for _, tl in timelines
        for e in tl.events
        if e.label.startswith("shrink@")
    )
    attempted = c.get("tls.subloops", 0.0)
    violations = c.get("tls.violations", 0.0)
    return {
        "subloops_attempted": attempted,
        "subloops_clean": attempted - violations,
        "violations": violations,
        "relaunches": c.get("tls.relaunches", 0.0),
        "cpu_handoffs": c.get("tls.cpu_handoffs", 0.0),
        "shrinks": shrinks,
        "iterations": {
            "committed": c.get("tls.committed_iterations", 0.0),
            "squashed": c.get("tls.squashed_iterations", 0.0),
            "cpu": c.get("tls.cpu_iterations", 0.0),
        },
    }


def steal_summary(metrics, timelines: Sequence) -> dict:
    """Steal-efficiency roll-up of the stealing scheduler's dispatches."""
    c = _counters(metrics)
    tasks = c.get("scheduler.stealing.tasks", 0.0)
    steals = c.get("scheduler.stealing.steals", 0.0)
    stolen_busy = sum(
        e.duration
        for _, tl in timelines
        for e in tl.events
        if e.label.endswith("*")
    )
    return {
        "dispatches": c.get("scheduler.stealing.dispatches", 0.0),
        "batches": c.get("scheduler.stealing.batches", 0.0),
        "tasks": tasks,
        "steals": steals,
        "steal_ratio": steals / tasks if tasks else 0.0,
        "stolen_busy_s": stolen_busy,
        "steal_time_s": c.get("scheduler.stealing.steal_time_s", 0.0),
    }


def phase_summary(tracer) -> dict:
    """Pipeline span roll-up by category (counts + simulated seconds)."""
    if tracer is None:
        return {}
    out: dict[str, dict] = {}
    for sp in tracer.finished_spans():
        if sp.plane != PLANE_SIM:
            continue
        row = out.setdefault(sp.category, {"count": 0, "sim_s": 0.0})
        row["count"] += 1
        if sp.sim_start_s is not None and sp.sim_end_s is not None:
            row["sim_s"] += sp.sim_end_s - sp.sim_start_s
    return {cat: out[cat] for cat in sorted(out)}


def analyze_run(
    timelines: Sequence,
    metrics=None,
    tracer=None,
    sim_time_s: Optional[float] = None,
) -> dict:
    """Build one report section from a traced run.

    ``timelines`` is a sequence of ``(name, Timeline)`` pairs (the same
    shape the Chrome exporter takes); ``metrics``/``tracer`` are the
    recording instruments, or None for timeline-only analysis.
    """
    tl_docs = {name: analyze_timeline(tl) for name, tl in timelines}
    makespan = sum(d["makespan_s"] for d in tl_docs.values())
    cp_len = sum(d["critical_path"]["length_s"] for d in tl_docs.values())
    section = {
        "timelines": tl_docs,
        "totals": {
            "makespan_s": makespan,
            "critical_path_s": cp_len,
            "slack_s": makespan - cp_len,
        },
        "speculation": speculation_waterfall(metrics, timelines),
        "stealing": steal_summary(metrics, timelines),
        "phases": phase_summary(tracer),
    }
    if sim_time_s is not None:
        section["sim_time_s"] = sim_time_s
    if metrics is not None:
        section["metrics"] = metrics.to_dict(plane=PLANE_SIM)
    return section


def run_report(sections: dict, meta: Optional[dict] = None) -> dict:
    """Wrap named sections into the versioned RunReport document."""
    totals = {
        "workloads": len(sections),
        "makespan_s": sum(
            s["totals"]["makespan_s"] for s in sections.values()
        ),
        "critical_path_s": sum(
            s["totals"]["critical_path_s"] for s in sections.values()
        ),
    }
    return {
        "schema": INSIGHT_SCHEMA,
        "meta": dict(meta or {}),
        "workloads": sections,
        "totals": totals,
    }


def write_report_json(path: str, report: dict) -> None:
    """Deterministic dump: sorted keys, fixed indent, trailing newline."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
