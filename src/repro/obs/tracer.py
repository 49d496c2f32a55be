"""Span-based pipeline tracing.

The tracer covers the whole pipeline — parse, analyze, translate,
profile, schedule, execute — as nested spans.  Two clocks appear in a
trace and neither is the wall clock, so output is fully deterministic:

* a **logical clock**: every span begin/end advances a monotone tick
  counter, which orders the compile-time phases (parse/analyze/translate)
  that exist outside the simulated machine;
* the **simulated clock**: spans wrapping execution work additionally
  carry ``sim_start_s``/``sim_end_s`` read off the discrete-event
  :class:`~repro.runtime.clock.Timeline`.

Every span declares its **plane** where it is opened: ``sim`` (the
default) for the simulated run, ``host`` for the machinery around it —
bytecode lifting, the serve plane.  Insight reports keep
only ``sim`` spans; no export writes the plane.

Disabled tracing goes through :class:`NullTracer`, whose ``span`` call
returns a shared reusable no-op context manager: no allocation, no
state, no effect on results or simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Pipeline phase names (span categories).
PHASE_PARSE = "parse"
PHASE_ANALYZE = "analyze"
PHASE_TRANSLATE = "translate"
PHASE_PROFILE = "profile"
PHASE_SCHEDULE = "schedule"
PHASE_EXECUTE = "execute"

#: Observability planes (declared per span and per metric instrument).
PLANE_SIM = "sim"
PLANE_HOST = "host"


@dataclass
class Span:
    """One traced pipeline phase."""

    id: int
    name: str
    category: str
    #: logical-clock interval (tick counter; orders compile-time work)
    tick_start: int
    tick_end: int = -1
    #: simulated-clock interval, when the span wraps simulated work
    sim_start_s: Optional[float] = None
    sim_end_s: Optional[float] = None
    parent_id: Optional[int] = None
    attrs: dict = field(default_factory=dict)
    plane: str = PLANE_SIM

    @property
    def open(self) -> bool:
        return self.tick_end < 0


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def annotate(self, **attrs) -> None:
        """Attach attributes to the span while it is open."""
        self.span.attrs.update(attrs)

    def set_sim(self, start_s: float, end_s: Optional[float] = None) -> None:
        """Pin the span to the simulated clock."""
        self.span.sim_start_s = start_s
        if end_s is not None:
            self.span.sim_end_s = end_s

    def close(self) -> None:
        """End the span (for call sites that can't use ``with``)."""
        if self.span.open:
            self.tracer._close(self.span)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _NullSpanHandle:
    """Shared no-op handle: the zero-overhead disabled path."""

    __slots__ = ()

    def annotate(self, **attrs) -> None:
        pass

    def set_sim(self, start_s, end_s=None) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_HANDLE = _NullSpanHandle()


class Tracer:
    """Recording tracer: an append-only list of spans plus a tick clock."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._tick = 0
        self._stack: list[int] = []

    def span(
        self, name: str, category: str = "", plane: str = PLANE_SIM, **attrs
    ) -> _SpanHandle:
        """Open a span; use as a context manager."""
        sp = Span(
            id=len(self.spans),
            name=name,
            category=category or name,
            tick_start=self._next_tick(),
            parent_id=self._stack[-1] if self._stack else None,
            attrs=dict(attrs),
            plane=plane,
        )
        self.spans.append(sp)
        self._stack.append(sp.id)
        return _SpanHandle(self, sp)

    def _close(self, span: Span) -> None:
        span.tick_end = self._next_tick()
        # tolerate out-of-order closes (exceptions unwinding the stack)
        if self._stack and self._stack[-1] == span.id:
            self._stack.pop()
        elif span.id in self._stack:
            self._stack.remove(span.id)

    def _next_tick(self) -> int:
        self._tick += 1
        return self._tick

    def finished_spans(self) -> list[Span]:
        return [s for s in self.spans if not s.open]


class NullTracer:
    """Disabled tracing: every call is a no-op on a shared handle."""

    enabled = False
    spans: tuple = ()

    def span(
        self, name: str, category: str = "", plane: str = PLANE_SIM, **attrs
    ) -> _NullSpanHandle:
        return _NULL_HANDLE

    def finished_spans(self) -> tuple:
        return ()


NULL_TRACER = NullTracer()
