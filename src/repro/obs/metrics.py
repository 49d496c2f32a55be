"""Metrics registry: counters, gauges, histograms.

Every instrumented component (the schedulers, the GPU and CPU
simulators, the TLS engine, the fault plane bridge) feeds a shared
:class:`MetricsRegistry` owned by the :class:`Instrumentation` bundle on
the execution context.  Instruments measure *simulated* quantities —
bytes, launches, steals, violations, simulated seconds — so a metrics
dump is deterministic for a given program and seed.  Host wall time
never enters a registry.

Each instrument declares its plane where it is first created: ``sim``
(the default) for the simulated run, ``host`` for the machinery around
it (kernel tiers, bytecode lifting, the serve plane).  Insight reports
keep only ``sim`` instruments; no export writes the plane.

Registries merge as a commutative monoid (:meth:`MetricsRegistry.merge`,
identity ``MetricsRegistry()``): the serve plane folds worker registries
into its own with it.

When observability is off the registry is :data:`NULL_METRICS`, whose
instruments are shared singletons with no-op mutators: the hot paths pay
one attribute lookup and one call, and no state is retained.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .tracer import NULL_TRACER, PLANE_SIM

#: Log-spaced histogram bucket upper bounds ("le" convention).  Powers of
#: two are exact binary floats, so bucket assignment is identical on every
#: platform — fully deterministic, no sampling.  The range covers roughly
#: 1e-12 .. 1e12; smaller values land in the first bucket, larger ones in
#: the overflow bucket past the last bound.
BUCKET_BOUNDS: tuple = tuple(2.0 ** k for k in range(-40, 41))


class Counter:
    """Monotonically increasing value (counts, bytes, seconds)."""

    __slots__ = ("name", "value", "plane")

    def __init__(self, name: str, plane: str = PLANE_SIM):
        self.name = name
        self.value = 0.0
        self.plane = plane

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-written value (boundaries, thresholds, pool sizes)."""

    __slots__ = ("name", "value", "written", "plane")

    def __init__(self, name: str, plane: str = PLANE_SIM):
        self.name = name
        self.value = 0.0
        self.written = False
        self.plane = plane

    def set(self, value: float) -> None:
        self.value = float(value)
        self.written = True


class Histogram:
    """Streaming summary plus fixed log-spaced bucket counts.

    Every observation increments exactly one bucket (no reservoir, no
    sampling), so percentile estimates are deterministic and two runs of
    the same program produce identical dumps.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "plane")

    def __init__(self, name: str, plane: str = PLANE_SIM):
        self.name = name
        self.plane = plane
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: per-bucket observation counts; buckets[i] holds values
        #: <= BUCKET_BOUNDS[i], the trailing slot is the overflow bucket
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[bisect_left(BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Percentile estimate from the bucket counts.

        Returns the upper bound of the bucket holding the ``q``-th
        observation, clamped to the observed ``[min, max]`` so the
        estimate never leaves the data range.  Deterministic: repeat
        runs yield bit-identical values.
        """
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cum = 0
        for idx, n in enumerate(self.buckets):
            cum += n
            if cum >= rank:
                bound = (
                    BUCKET_BOUNDS[idx]
                    if idx < len(BUCKET_BOUNDS)
                    else self.max
                )
                return min(max(bound, self.min), self.max)
        return self.max

    def bucket_pairs(self) -> list:
        """Non-empty buckets as ``[le, count]`` pairs (ascending ``le``;
        the overflow bucket exports ``le`` as the string ``"+Inf"``)."""
        out = []
        for idx, n in enumerate(self.buckets):
            if not n:
                continue
            le = BUCKET_BOUNDS[idx] if idx < len(BUCKET_BOUNDS) else "+Inf"
            out.append([le, n])
        return out


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled path."""

    __slots__ = ()
    name = ""
    value = 0.0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def bucket_pairs(self) -> list:
        return []


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments, created on first use."""

    enabled = True

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, plane: str = PLANE_SIM) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name, plane)
        return inst

    def gauge(self, name: str, plane: str = PLANE_SIM) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name, plane)
        return inst

    def histogram(self, name: str, plane: str = PLANE_SIM) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, plane)
        return inst

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry folding ``self`` then ``other``.

        Counters add, written gauges take the max, histograms add their
        bucket arrays, ``count`` and ``total`` and take the min of
        ``min`` and the max of ``max``.  Associative and commutative
        with identity ``MetricsRegistry()``; merged quantiles equal
        those of one registry fed both observation streams.
        """
        out = MetricsRegistry()
        for reg in (self, other):
            for name, c in reg._counters.items():
                out.counter(name, c.plane).inc(c.value)
            for name, g in reg._gauges.items():
                if g.written:
                    m = out.gauge(name, g.plane)
                    m.set(max(m.value, g.value) if m.written else g.value)
            for name, h in reg._histograms.items():
                m = out.histogram(name, h.plane)
                m.count += h.count
                m.total += h.total
                m.min = min(m.min, h.min)
                m.max = max(m.max, h.max)
                m.buckets = [a + b for a, b in zip(m.buckets, h.buckets)]
        return out

    def to_dict(self, plane: Optional[str] = None) -> dict:
        """Plain-JSON view, keys sorted for deterministic dumps.

        ``plane`` keeps only the instruments of that plane.
        """

        def rows(instruments: dict) -> list:
            return [
                (name, inst)
                for name, inst in sorted(instruments.items())
                if plane is None or inst.plane == plane
            ]

        return {
            "counters": {name: c.value for name, c in rows(self._counters)},
            "gauges": {
                name: g.value for name, g in rows(self._gauges) if g.written
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "min": h.min if h.count else 0.0,
                    "max": h.max if h.count else 0.0,
                    "mean": h.mean,
                    "p50": h.quantile(0.50),
                    "p95": h.quantile(0.95),
                    "p99": h.quantile(0.99),
                    # [le, count] pairs: a list survives sort_keys dumps
                    # with the ascending bound order intact
                    "buckets": h.bucket_pairs(),
                }
                for name, h in rows(self._histograms)
            },
        }


class NullMetricsRegistry:
    """Disabled metrics: every instrument is the shared no-op."""

    enabled = False

    def counter(self, name: str, plane: str = PLANE_SIM) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, plane: str = PLANE_SIM) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, plane: str = PLANE_SIM
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def to_dict(self, plane: Optional[str] = None) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetricsRegistry()


def record_resilience(metrics, report) -> None:
    """Bridge a :class:`~repro.faults.resilience.ResilienceReport` into
    the metrics registry (fault-plane counters per site)."""
    if report is None:
        return
    metrics.counter("faults.injected").inc(report.faults_seen)
    metrics.counter("faults.recoveries").inc(report.recoveries)
    metrics.counter("faults.degradations").inc(report.degradations)
    metrics.counter("faults.penalty_s").inc(report.penalty_s)
    for site, n in sorted(report.by_site().items()):
        metrics.counter(f"faults.injected.{site}").inc(n)


@dataclass
class Instrumentation:
    """The observability bundle handed to every component.

    ``NULL_INSTRUMENTATION`` (the default everywhere) carries the no-op
    tracer and registry, so instrumented code needs no ``if`` guards and
    a disabled run is byte-identical to an uninstrumented one.
    """

    tracer: object
    metrics: object
    enabled: bool = True

    @classmethod
    def recording(cls) -> "Instrumentation":
        from .tracer import Tracer

        return cls(tracer=Tracer(), metrics=MetricsRegistry(), enabled=True)

    @classmethod
    def disabled(cls) -> "Instrumentation":
        return NULL_INSTRUMENTATION


NULL_INSTRUMENTATION = Instrumentation(
    tracer=NULL_TRACER, metrics=NULL_METRICS, enabled=False
)
