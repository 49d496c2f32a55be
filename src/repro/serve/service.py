"""The compilation service: admission → deadline → breaker → shedding.

:class:`CompilationService` is the transport-independent core — the HTTP
layer (:mod:`repro.serve.server`) is a thin adapter over
:meth:`CompilationService.submit`.  One submission flows through the
gates in a fixed order:

1. **validate** — malformed specs (including bad ``faults`` grammar)
   are refused with a pointed message, never a mid-run traceback;
2. **circuit breaker** — a tenant with too many consecutive failures is
   refused instantly until the breaker half-opens;
3. **degradation ladder** — under queue pressure the service drops
   report generation, then serves cache-only answers, then sheds
   lowest-priority jobs outright;
4. **admission control** — per-tenant token bucket + bounded queue;
   refusals carry a ``retry_after_s`` hint;
5. **dispatch** — a deadline is stamped, the job enters the priority
   queue, and a dispatcher drives it through the worker pool with
   seeded-jitter retries around worker deaths.

Every admitted job settles in the :class:`JobLedger` exactly once; the
chaos suite reconciles that invariant after killing workers mid-run.

**Observability** (``trace=True`` in :class:`ServeConfig`): every job
carries a :class:`~repro.obs.distrib.JobTrace` whose tracer records one
span per gate verdict and dispatch attempt; worker-side pipeline spans
ship back with the result and are grafted under the attempt that
produced them, so one job exports one Chrome-trace tree from HTTP accept
to settlement.  Worker registries ride back the same way and fold into
the service's own metrics with the commutative merge behind
``/v1/metrics``.  Every serve instrument and span is declared on the
``host`` plane.  A bounded flight recorder runs regardless of tracing
and dumps a ``repro.flight/v1`` post-mortem bundle on worker death,
breaker trip, or (with ``dump_on_shed``) a shed.  With tracing off, the
null tracer makes every span call a shared no-op and results carry no
extra fields: responses are byte-identical to the untraced service.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..errors import JaponicaError, WorkerDied
from ..faults.resilience import FaultRuntime, ResiliencePolicy
from ..faults.schedule import FaultSchedule
from ..obs.export import chrome_trace
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import NULL_TRACER, PLANE_HOST
from ..obs.distrib import (
    LANE_SERVICE,
    FlightRecorder,
    JobTrace,
    TraceContext,
    adopt_spans,
    close_open_spans,
    open_span_docs,
    render_prometheus,
    write_flight_dump,
)
from ..runtime.deadline import Deadline
from .admission import AdmissionController, TenantQuota
from .breaker import BreakerBoard
from .degrade import (
    LEVEL_CACHE_ONLY,
    LEVEL_SHED_LOW,
    DEFAULT_THRESHOLDS,
    DegradationLadder,
)
from .jobs import (
    PRIORITY_LOW,
    STATUS_BREAKER_OPEN,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REJECTED,
    STATUS_SHED,
    JobLedger,
    JobResult,
    JobSpec,
)
from .pool import WorkerPool

#: Schema tag of the ``/v1/metrics`` JSON document.
METRICS_DOC_SCHEMA = "repro.servemetrics/v1"


def tenant_latency_summary(histograms: dict) -> dict:
    """Per-tenant latency summaries from the merged histogram summaries.

    The service records one ``serve.tenant.<tenant>.wall_ms`` histogram
    per tenant at settlement; this extracts ``{tenant: summary}``.
    """
    prefix, suffix = "serve.tenant.", ".wall_ms"
    out = {}
    for name, summary in histograms.items():
        if name.startswith(prefix) and name.endswith(suffix):
            tenant = name[len(prefix):-len(suffix)]
            if tenant:
                out[tenant] = summary
    return out


def slo_summary(counters: dict, target_ms: float) -> dict:
    """SLO burn-rate view over the good/bad settlement counters."""
    good = counters.get("serve.slo.good", 0.0)
    bad = counters.get("serve.slo.bad", 0.0)
    total = good + bad
    return {
        "good": good,
        "bad": bad,
        "burn_rate": bad / total if total else 0.0,
        "target_wall_ms": target_ms,
    }


@dataclass
class ServeConfig:
    """Tuning knobs of the compilation service."""

    #: worker pool
    workers: int = 2
    backend: str = "thread"  # "thread" | "process"
    cache_dir: Optional[str] = None
    #: admission control
    max_queue: int = 32
    quota_rate: float = 50.0      #: default tokens/s per tenant
    quota_burst: float = 16.0     #: default burst per tenant
    tenant_quotas: dict[str, TenantQuota] = field(default_factory=dict)
    #: deadlines
    default_deadline_s: float = 30.0
    #: circuit breaker
    breaker_failures: int = 3
    breaker_recovery_s: float = 2.0
    breaker_half_open_max: int = 1
    #: worker-death retries (real seconds, seeded-jitter exponential)
    max_retries: int = 3
    retry_base_s: float = 0.002
    retry_cap_s: float = 0.25
    #: degradation ladder thresholds ((escalate, relax) per rung)
    thresholds: tuple = DEFAULT_THRESHOLDS
    #: serve-level fault schedule (``serve.worker`` site) for chaos runs
    faults: Optional[str] = None
    fault_seed: int = 0
    #: completed-results cache (the cache-only degradation rung)
    results_cache_entries: int = 256
    #: request tracing + worker metric shipping (PR 10); off by default
    #: so the untraced serve plane stays byte-identical
    trace: bool = False
    #: settled job traces retained for ``GET /v1/trace/<job_id>`` (LRU)
    trace_keep: int = 64
    #: flight-recorder ring capacity (events per lane)
    flight_events: int = 64
    #: in-memory flight dumps retained
    flight_keep: int = 8
    #: also dump the flight recorder when a job is shed
    dump_on_shed: bool = False
    #: directory for flight-dump files (None = in-memory only)
    dump_dir: Optional[str] = None
    #: latency SLO target feeding the good/bad burn-rate counters
    slo_wall_ms: float = 30000.0


class CompilationService:
    """Long-lived multi-tenant front end over the Japonica pipeline."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config or ServeConfig()
        self.clock = clock
        self.metrics = MetricsRegistry()
        cfg = self.config
        self.admission = AdmissionController(
            default_quota=TenantQuota(cfg.quota_rate, cfg.quota_burst),
            tenant_quotas=cfg.tenant_quotas,
            max_queue=cfg.max_queue,
            clock=clock,
        )
        self.breakers = BreakerBoard(
            failure_threshold=cfg.breaker_failures,
            recovery_time_s=cfg.breaker_recovery_s,
            half_open_max=cfg.breaker_half_open_max,
            clock=clock,
        )
        self.ladder = DegradationLadder(cfg.thresholds)
        self.faults = FaultRuntime(policy=ResiliencePolicy(
            max_retries=cfg.max_retries,
            backoff_base_s=cfg.retry_base_s,
        ))
        if cfg.faults:
            self.faults.install(
                FaultSchedule.parse(cfg.faults, seed=cfg.fault_seed)
            )
        self.pool = WorkerPool(
            workers=cfg.workers,
            backend=cfg.backend,
            cache_dir=cfg.cache_dir,
            faults=self.faults,
            trace=cfg.trace,
        )
        self.ledger = JobLedger()
        self.flight = FlightRecorder(capacity=cfg.flight_events)
        self._flight_dumps: deque = deque(maxlen=cfg.flight_keep)
        #: latest registry copy per worker (cumulative, so keeping only
        #: the newest per worker makes the fold exact)
        self._worker_metrics: dict[str, MetricsRegistry] = {}
        #: job traces: in flight, then an LRU of settled ones
        self._active_traces: dict[str, JobTrace] = {}
        self._traces: OrderedDict[str, JobTrace] = OrderedDict()
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._qseq = itertools.count()
        self._dispatchers: list[asyncio.Task] = []
        self._results_cache: OrderedDict[str, dict] = OrderedDict()
        self._started = False

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        await self.pool.start()
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(), name=f"dispatch-{i}")
            for i in range(self.config.workers)
        ]
        self._started = True

    async def stop(self, drain: bool = True) -> None:
        if not self._started:
            return
        if drain:
            await self._queue.join()
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._dispatchers = []
        await self.pool.stop()
        self._started = False

    # -- tracing helpers --------------------------------------------------

    def _mint_trace(self, job: JobSpec) -> Optional[JobTrace]:
        if not self.config.trace:
            return None
        trace = JobTrace(TraceContext.mint(job.tenant, job.job_id))
        trace.open_root(
            "serve.job", "serve", job_id=job.job_id, tenant=job.tenant,
        )
        self._active_traces[job.job_id] = trace
        return trace

    def _finish_trace(self, job: JobSpec, trace: Optional[JobTrace],
                      result: JobResult) -> None:
        """Close the root, sweep stragglers, retire the trace to the LRU."""
        if trace is None:
            return
        if trace.root is not None and trace.root.span.open:
            trace.root.annotate(status=result.status,
                                attempts=result.attempts)
            trace.root.close()
        close_open_spans(trace.tracer, status="abandoned")
        self._active_traces.pop(job.job_id, None)
        self._traces[job.job_id] = trace
        self._traces.move_to_end(job.job_id)
        while len(self._traces) > self.config.trace_keep:
            self._traces.popitem(last=False)

    def _flight_dump(self, reason: str, **attrs) -> dict:
        open_spans = []
        for job_id in sorted(self._active_traces):
            open_spans.extend(
                open_span_docs(self._active_traces[job_id].tracer)
            )
        state = {
            "queue_depth": self._queue.qsize(),
            "degradation": self.ladder.stats(),
            "breakers": {
                "trips": self.breakers.trips,
                "recoveries": self.breakers.recoveries,
            },
            "pool": {
                "backend": self.pool.backend,
                "workers": self.pool.workers,
                "worker_deaths": self.pool.worker_deaths,
                "workers_spawned": self.pool.workers_spawned,
            },
            "ledger": self.ledger.counts(),
        }
        doc = self.flight.dump(
            reason, open_spans=open_spans, state=state, **attrs
        )
        self._flight_dumps.append(doc)
        if self.config.dump_dir:
            os.makedirs(self.config.dump_dir, exist_ok=True)
            write_flight_dump(
                os.path.join(
                    self.config.dump_dir,
                    f"flight-{doc['dump_seq']:04d}-{reason}.json",
                ),
                doc,
            )
        return doc

    def flight_latest(self) -> Optional[dict]:
        """The most recent flight dump, if any trigger has fired."""
        return self._flight_dumps[-1] if self._flight_dumps else None

    def trace_document(self, job_id: str) -> Optional[dict]:
        """One settled (or in-flight) job's Chrome-trace document."""
        trace = self._traces.get(job_id) or self._active_traces.get(job_id)
        if trace is None:
            return None
        return chrome_trace(
            trace.tracer.spans,
            metadata={"trace_id": trace.context.trace_id, "job_id": job_id},
        )

    # -- metrics merge ----------------------------------------------------

    def merged_metrics(self) -> MetricsRegistry:
        """Service registry folded with every worker's latest copy."""
        merged = self.metrics
        for name in sorted(self._worker_metrics):
            merged = merged.merge(self._worker_metrics[name])
        return merged

    def metrics_prometheus(self) -> str:
        return render_prometheus(self.merged_metrics())

    def metrics_document(self) -> dict:
        """The deterministic JSON view behind ``/v1/metrics?format=json``."""
        doc = self.merged_metrics().to_dict()
        counters = doc["counters"]
        histograms = {
            name: {k: v for k, v in h.items() if k != "buckets"}
            for name, h in doc["histograms"].items()
        }
        admitted = counters.get("serve.admitted", 0.0)
        refused = sum(
            v for k, v in counters.items()
            if k in (f"serve.{STATUS_REJECTED}", f"serve.{STATUS_SHED}",
                     f"serve.{STATUS_BREAKER_OPEN}")
        )
        submitted = admitted + refused
        return {
            "schema": METRICS_DOC_SCHEMA,
            "workers_reporting": sorted(self._worker_metrics),
            "counters": counters,
            "gauges": doc["gauges"],
            "histograms": histograms,
            "tenants": tenant_latency_summary(histograms),
            "slo": slo_summary(counters, self.config.slo_wall_ms),
            "rates": {
                "shed": (
                    counters.get(f"serve.{STATUS_SHED}", 0.0) / submitted
                    if submitted else 0.0
                ),
                "rejected": (
                    counters.get(f"serve.{STATUS_REJECTED}", 0.0) / submitted
                    if submitted else 0.0
                ),
                "retry": (
                    counters.get("serve.retry.attempts", 0.0) / admitted
                    if admitted else 0.0
                ),
            },
        }

    # -- submission path --------------------------------------------------

    def _load(self) -> float:
        return self._queue.qsize() / self.config.max_queue

    def _refuse(self, job: JobSpec, status: str, retry_after_s: float,
                error: str, trace: Optional[JobTrace] = None) -> JobResult:
        self.ledger.refuse(job, status)
        self.metrics.counter(f"serve.{status}", PLANE_HOST).inc()
        self.flight.record(
            LANE_SERVICE, "job.refused", job_id=job.job_id,
            tenant=job.tenant, status=status,
        )
        result = JobResult(
            job.job_id, job.tenant, status, kind=job.kind,
            retry_after_s=retry_after_s or None, error=error,
        )
        self._finish_trace(job, trace, result)
        if status == STATUS_SHED and self.config.dump_on_shed:
            self._flight_dump("shed", job_id=job.job_id, tenant=job.tenant)
        return result

    def _cached_answer(self, job: JobSpec) -> Optional[JobResult]:
        doc = self._results_cache.get(job.result_key())
        if doc is None:
            return None
        self._results_cache.move_to_end(job.result_key())
        result = JobResult.from_dict(dict(doc))
        result.job_id = job.job_id
        result.tenant = job.tenant
        result.served_from_cache = True
        result.degrade_level = self.ladder.level
        return result

    def _store_answer(self, job: JobSpec, result: JobResult) -> None:
        if result.status != STATUS_OK:
            return
        self._results_cache[job.result_key()] = result.to_dict()
        self._results_cache.move_to_end(job.result_key())
        while len(self._results_cache) > self.config.results_cache_entries:
            self._results_cache.popitem(last=False)

    async def submit(self, job: JobSpec,
                     trace: Optional[JobTrace] = None) -> JobResult:
        """Drive one job through every gate to a terminal result.

        Raises :class:`JaponicaError` only for *malformed* specs (the
        HTTP layer maps that to 400); every load-dependent refusal is a
        terminal :class:`JobResult`, so callers can always distinguish
        "you sent garbage" from "come back later".

        ``trace`` lets the accepting edge (the HTTP layer) hand in a
        :class:`JobTrace` whose root span it already opened; with
        tracing on and no trace given, the service mints one rooted at
        ``serve.job``.
        """
        if not self._started:
            await self.start()
        job.validate()
        if trace is None:
            trace = self._mint_trace(job)
        elif self.config.trace:
            self._active_traces[job.job_id] = trace
        tr = trace.tracer if trace is not None else NULL_TRACER
        self.flight.record(
            LANE_SERVICE, "job.submit", job_id=job.job_id, tenant=job.tenant,
            job_kind=job.kind, priority=job.priority,
            trace_id=trace.context.trace_id if trace else None,
        )

        # 2. circuit breaker
        breaker = self.breakers.breaker(job.tenant)
        with tr.span("gate:breaker", "serve", plane=PLANE_HOST,
                     tenant=job.tenant) as sp:
            allowed = breaker.allow()
            sp.annotate(outcome="allow" if allowed else "open",
                        state=breaker.state)
        if not allowed:
            self.metrics.counter("serve.breaker.refused", PLANE_HOST).inc()
            return self._refuse(
                job, STATUS_BREAKER_OPEN,
                retry_after_s=max(breaker.retry_after(), 1e-3),
                error=f"circuit breaker open for tenant {job.tenant!r}",
                trace=trace,
            )

        # 3. degradation ladder (cumulative rungs); any refusal past the
        # breaker must hand back the half-open probe slot allow() took
        with tr.span("gate:ladder", "serve", plane=PLANE_HOST) as sp:
            level = self.ladder.observe(self._load())
            sp.annotate(outcome=level)
        self.metrics.gauge("serve.degrade.level", PLANE_HOST).set(level)
        if level >= LEVEL_SHED_LOW and job.priority >= PRIORITY_LOW:
            breaker.release()
            self.metrics.counter("serve.shed.priority", PLANE_HOST).inc()
            return self._refuse(
                job, STATUS_SHED, retry_after_s=0.1,
                error="shedding lowest-priority jobs under overload",
                trace=trace,
            )
        if level >= LEVEL_CACHE_ONLY:
            breaker.release()
            cached = self._cached_answer(job)
            if cached is not None:
                self.metrics.counter("serve.cache_only.hit", PLANE_HOST).inc()
                self.ledger.refuse(job, STATUS_OK)
                self._finish_trace(job, trace, cached)
                return cached
            self.metrics.counter("serve.shed.cache_only", PLANE_HOST).inc()
            return self._refuse(
                job, STATUS_SHED, retry_after_s=0.1,
                error="cache-only mode under overload and no cached answer",
                trace=trace,
            )

        # 4. admission control (queue depth, then the tenant's tokens)
        with tr.span("gate:admission", "serve", plane=PLANE_HOST,
                     tenant=job.tenant) as sp:
            decision = self.admission.admit(job.tenant, self._queue.qsize())
            sp.annotate(
                outcome="admit" if decision.admitted else decision.reason
            )
        if not decision.admitted:
            breaker.release()
            self.metrics.counter(
                f"serve.rejected.{decision.reason}", PLANE_HOST
            ).inc()
            return self._refuse(
                job, STATUS_REJECTED,
                retry_after_s=decision.retry_after_s,
                error=f"admission refused ({decision.reason})",
                trace=trace,
            )

        # 5. admitted: stamp the deadline, queue, await settlement
        self.metrics.counter("serve.admitted", PLANE_HOST).inc()
        self.ledger.admit(job)
        budget_s = (
            job.deadline_ms / 1e3
            if job.deadline_ms is not None
            else self.config.default_deadline_s
        )
        with tr.span("gate:deadline", "serve", plane=PLANE_HOST) as sp:
            deadline = Deadline(budget_s, clock=self.clock)
            sp.annotate(outcome="stamped", budget_s=budget_s)
        self.flight.record(
            LANE_SERVICE, "job.admitted", job_id=job.job_id,
            tenant=job.tenant, budget_s=budget_s,
        )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait(
            (job.priority, next(self._qseq), job, future, deadline, trace)
        )
        self.metrics.gauge("serve.queue_depth", PLANE_HOST).set(
            self._queue.qsize()
        )
        return await future

    # -- dispatch path ----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            _prio, _seq, job, future, deadline, trace = await self._queue.get()
            try:
                level = self.ladder.observe(self._load())
                result = await self._execute(job, level, deadline, trace)
                breaker = self.breakers.breaker(job.tenant)
                trips_before = breaker.trips
                if result.status == STATUS_OK:
                    breaker.record_success()
                elif result.status == STATUS_FAILED:
                    breaker.record_failure()
                    if breaker.trips > trips_before:
                        self.metrics.counter(
                            "serve.breaker.trips", PLANE_HOST
                        ).inc()
                        self.flight.record(
                            LANE_SERVICE, "breaker.trip",
                            tenant=job.tenant, job_id=job.job_id,
                        )
                        self._flight_dump(
                            "breaker_trip", tenant=job.tenant,
                            job_id=job.job_id,
                        )
                else:
                    # neutral outcome (e.g. deadline): no verdict on the
                    # tenant's health, but the half-open probe slot that
                    # allow() took must be handed back
                    breaker.release()
                self._store_answer(job, result)
                self.ledger.settle(
                    job.job_id, result.status, tenant=job.tenant,
                    trace_id=trace.context.trace_id if trace else "",
                    attempts=result.attempts,
                )
                self.metrics.counter(
                    f"serve.{result.status}", PLANE_HOST
                ).inc()
                self.metrics.histogram("serve.wall_ms", PLANE_HOST).observe(
                    result.wall_ms
                )
                self.metrics.histogram(
                    f"serve.tenant.{job.tenant}.wall_ms", PLANE_HOST
                ).observe(result.wall_ms)
                slo_ok = (
                    result.status == STATUS_OK
                    and result.wall_ms <= self.config.slo_wall_ms
                )
                self.metrics.counter(
                    "serve.slo.good" if slo_ok else "serve.slo.bad",
                    PLANE_HOST,
                ).inc()
                self.flight.record(
                    LANE_SERVICE, "job.settle", job_id=job.job_id,
                    tenant=job.tenant, status=result.status,
                    attempts=result.attempts,
                )
                self._finish_trace(job, trace, result)
                if not future.done():
                    future.set_result(result)
            except Exception as exc:  # dispatcher must never die
                # the every-admitted-job-settles-exactly-once invariant
                # holds even for unexpected dispatch errors
                if self.ledger.admitted.get(job.job_id) is None:
                    self.breakers.breaker(job.tenant).record_failure()
                    try:
                        self.ledger.settle(
                            job.job_id, STATUS_FAILED, tenant=job.tenant,
                            trace_id=(
                                trace.context.trace_id if trace else ""
                            ),
                        )
                    except JaponicaError:  # pragma: no cover - raced settle
                        pass
                    self.metrics.counter(
                        f"serve.{STATUS_FAILED}", PLANE_HOST
                    ).inc()
                if not future.done():
                    future.set_exception(exc)
            finally:
                self._queue.task_done()

    async def _execute(
        self, job: JobSpec, level: int, deadline: Deadline,
        trace: Optional[JobTrace] = None,
    ) -> JobResult:
        """Run with seeded-jitter retries around transient worker deaths."""
        policy = self.faults.policy
        seed = self.config.fault_seed
        tr = trace.tracer if trace is not None else NULL_TRACER
        attempt = 0
        while True:
            handle = tr.span(
                "attempt:%d" % (attempt + 1), "serve", plane=PLANE_HOST,
                job_id=job.job_id, attempt=attempt + 1,
            )
            trace_ctx = (
                trace.context.child(handle.span.id)
                if trace is not None else None
            )
            try:
                result = await self.pool.run(
                    job, level, deadline, trace_ctx=trace_ctx
                )
                result.attempts = attempt + 1
                self._account_cache(result)
                self._adopt_result(result, trace, handle)
                handle.annotate(outcome=result.status)
                handle.close()
                return result
            except WorkerDied as exc:
                # the liveness reaper detected a killed worker: the
                # attempt span it left open closes here, marked killed
                handle.annotate(outcome="worker_died", status="killed",
                                worker=exc.worker)
                handle.close()
                self.metrics.counter("serve.worker.deaths", PLANE_HOST).inc()
                self.flight.record(
                    LANE_SERVICE, "worker.death", job_id=job.job_id,
                    tenant=job.tenant, worker=exc.worker,
                    trace_id=exc.trace_id or None, attempt=attempt + 1,
                )
                self._flight_dump(
                    "worker_death", job_id=job.job_id, worker=exc.worker,
                )
                if attempt >= policy.max_retries:
                    return JobResult(
                        job.job_id, job.tenant, STATUS_FAILED, kind=job.kind,
                        attempts=attempt + 1,
                        error=f"worker died {attempt + 1} times: {exc}",
                    )
                backoff = min(
                    policy.jittered_backoff(
                        attempt, seed, "serve.retry", job.job_id
                    ),
                    self.config.retry_cap_s,
                )
                self.metrics.counter("serve.retry.attempts", PLANE_HOST).inc()
                self.metrics.counter(
                    "serve.retry.backoff_s", PLANE_HOST
                ).inc(backoff)
                self.flight.record(
                    LANE_SERVICE, "job.retry", job_id=job.job_id,
                    tenant=job.tenant, attempt=attempt + 1,
                    backoff_ms=round(backoff * 1e3, 3),
                )
                await asyncio.sleep(backoff)
                attempt += 1

    def _adopt_result(self, result: JobResult, trace: Optional[JobTrace],
                      handle) -> None:
        """Graft shipped worker spans; fold the worker's registry."""
        docs = result.__dict__.pop("trace_spans", None)
        worker_metrics = result.__dict__.pop("worker_metrics", None)
        worker_name = result.__dict__.pop("worker_name", None)
        if trace is not None and docs:
            adopt_spans(trace.tracer, docs, parent_id=handle.span.id)
        if worker_name and worker_metrics is not None:
            self._worker_metrics[worker_name] = worker_metrics

    def _account_cache(self, result: JobResult) -> None:
        delta = result.__dict__.get("cache_delta")
        if delta:
            m = self.metrics
            m.counter("serve.cache.hits", PLANE_HOST).inc(delta["hits"])
            m.counter("serve.cache.misses", PLANE_HOST).inc(delta["misses"])

    # -- introspection ----------------------------------------------------

    def cache_hit_rate(self) -> float:
        hits = self.metrics.counter("serve.cache.hits", PLANE_HOST).value
        misses = self.metrics.counter("serve.cache.misses", PLANE_HOST).value
        total = hits + misses
        return hits / total if total else 0.0

    def stats(self) -> dict:
        counts = self.ledger.counts()
        return {
            "schema": "repro.serve/v1",
            "queue_depth": self._queue.qsize(),
            "ledger": {
                "admitted": len(self.ledger.admitted),
                "unsettled": len(self.ledger.unsettled()),
                "duplicate_settlements": self.ledger.duplicate_settlements,
                "counts": counts,
            },
            "admission": self.admission.stats(),
            "breakers": {
                "trips": self.breakers.trips,
                "recoveries": self.breakers.recoveries,
                "tenants": self.breakers.stats(),
            },
            "degradation": self.ladder.stats(),
            "pool": self.pool.stats(),
            "cache_hit_rate": self.cache_hit_rate(),
        }
