"""Request-scoped trace contexts and span adoption across processes.

A :class:`TraceContext` identifies one request's trace: a deterministic
``trace_id`` (derived from tenant and job id — never a wall clock or a
PRNG), the id of the parent span on the service side of a hop, and the
logical-clock offset already consumed upstream.  It travels as a plain
dict so the HTTP layer, the service, and the worker-pool process
transport share one wire format.

Workers ship their pipeline spans back *in-band* with the job result as
plain span documents (:func:`span_doc`, which carries each span's
plane).  :func:`adopt_spans` is the one graft routine: the service
grafts shipped documents into the per-job trace tree with it, and a
worker grafts a report job's isolated spans under its ``worker:job``
span with it before shipping.  Ids are remapped, logical ticks are
rebased past the receiving tracer's current tick (the two tick clocks
are independent monotone counters), and shipped roots are re-parented
under the given span.  The result is one tree per job — HTTP accept,
every gate verdict, every attempt, and the pipeline phases — under one
``trace_id``.

Spans a SIGKILLed worker never got to close do not dangle: the service
side closes its open spans via :func:`close_open_spans` with
``status="killed"`` when the liveness reaper detects the death.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional

from ..tracer import PLANE_HOST, Span, Tracer


def mint_trace_id(tenant: str, job_id: str) -> str:
    """Deterministic 16-hex-digit trace id for one job.

    Derived purely from the job's identity so a replayed scenario (same
    tenant, same job id) yields the same trace id — the property the
    byte-identity acceptance test pins down.
    """
    digest = hashlib.sha256(f"repro.trace:{tenant}:{job_id}".encode())
    return digest.hexdigest()[:16]


@dataclass
class TraceContext:
    """One hop's view of a request trace."""

    trace_id: str
    #: span id (service side) the next hop's spans hang under; -1 = root
    parent_span_id: int = -1
    #: logical ticks consumed upstream of this hop (informational)
    clock: int = 0

    @classmethod
    def mint(cls, tenant: str, job_id: str) -> "TraceContext":
        return cls(trace_id=mint_trace_id(tenant, job_id))

    def child(self, parent_span_id: int, clock: int = 0) -> "TraceContext":
        return TraceContext(
            trace_id=self.trace_id, parent_span_id=parent_span_id,
            clock=clock,
        )

    def to_doc(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "clock": self.clock,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TraceContext":
        return cls(
            trace_id=doc["trace_id"],
            parent_span_id=doc.get("parent_span_id", -1),
            clock=doc.get("clock", 0),
        )


class JobTrace:
    """One job's trace tree on the service side.

    Owns a private :class:`~repro.obs.tracer.Tracer` (its logical clock
    starts at zero per job, which is what makes a single job's exported
    trace byte-identical across runs) and the root span opened at the
    accepting edge (HTTP layer or direct ``submit``).
    """

    def __init__(self, context: TraceContext):
        self.context = context
        self.tracer = Tracer()
        self.root = None  # root _SpanHandle, set by the accepting edge

    def open_root(self, name: str, category: str, **attrs):
        self.root = self.tracer.span(
            name, category, plane=PLANE_HOST,
            trace_id=self.context.trace_id, **attrs,
        )
        return self.root


def span_doc(sp: Span) -> dict:
    """One span as a plain picklable/JSON document (the wire format)."""
    return {
        "id": sp.id,
        "name": sp.name,
        "cat": sp.category,
        "tick_start": sp.tick_start,
        "tick_end": sp.tick_end,
        "sim_start_s": sp.sim_start_s,
        "sim_end_s": sp.sim_end_s,
        "parent_id": sp.parent_id,
        "attrs": dict(sp.attrs),
        "plane": sp.plane,
    }


def adopt_spans(
    tracer: Tracer, docs: Iterable[dict], parent_id: Optional[int],
) -> int:
    """Graft shipped span documents into ``tracer`` under ``parent_id``.

    Ids are remapped onto the tracer's id space and logical ticks are
    rebased past the tracer's current tick, preserving the shipped
    relative order (both clocks are monotone counters, so the rebase is
    a pure shift).  Shipped roots — spans whose parent is not part of
    the shipment — are re-parented under ``parent_id``.  Returns the
    number of spans adopted.
    """
    docs = sorted(docs, key=lambda d: d["id"])
    if not docs:
        return 0
    base = tracer._tick
    min_tick = min(d["tick_start"] for d in docs)
    max_tick = max(
        [d["tick_start"] for d in docs]
        + [d["tick_end"] for d in docs if d["tick_end"] >= 0]
    )
    shipped = {d["id"] for d in docs}
    idmap: dict[int, int] = {}
    for d in docs:
        new_id = len(tracer.spans)
        idmap[d["id"]] = new_id
        parent = (
            idmap.get(d["parent_id"])
            if d["parent_id"] in shipped
            else parent_id
        )
        tracer.spans.append(Span(
            id=new_id,
            name=d["name"],
            category=d["cat"],
            tick_start=base + 1 + (d["tick_start"] - min_tick),
            tick_end=(
                base + 1 + (d["tick_end"] - min_tick)
                if d["tick_end"] >= 0 else -1
            ),
            sim_start_s=d["sim_start_s"],
            sim_end_s=d["sim_end_s"],
            parent_id=parent,
            attrs=dict(d["attrs"]),
            plane=d["plane"],
        ))
    tracer._tick = base + 1 + (max_tick - min_tick)
    return len(docs)


def close_open_spans(tracer: Tracer, status: str) -> int:
    """Close every still-open span, innermost first, marking ``status``.

    The liveness reaper calls this when a worker is SIGKILLed mid-job:
    the spans the worker never closed must not dangle in the exported
    trace — they end at the reap tick carrying ``status="killed"``.
    Returns the number of spans closed.
    """
    closed = 0
    for sp in reversed(tracer.spans):
        if sp.open:
            sp.attrs["status"] = status
            tracer._close(sp)
            closed += 1
    return closed


def open_span_docs(tracer: Tracer) -> list[dict]:
    """Documents for the currently-open spans (flight-recorder bundles,
    which like every export leave the plane out)."""
    docs = [span_doc(sp) for sp in tracer.spans if sp.open]
    for doc in docs:
        del doc["plane"]
    return docs
