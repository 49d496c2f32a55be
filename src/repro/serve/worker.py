"""Worker runtime: executes one job on pooled, reusable contexts.

This is the refactor ROADMAP item 1 forces: instead of building a fresh
:class:`ExecutionContext` per call (the seed behaviour), each worker —
thread slot or child process — owns a :class:`WorkerRuntime` holding

* one :class:`Japonica` front end over the shared content-keyed
  :class:`ArtifactCache` (cross-tenant compile/profile hits),
* an LRU pool of :class:`ExecutionContext`\\ s keyed by the run
  configuration ``(workload, n, seed, devices)``, so a repeated request
  reuses the context's warm per-loop profile cache.

Jobs are *pure*: all results travel in-band, so a runtime that dies
mid-job leaves nothing behind and the service may retry the job on
another worker without risking duplicated side effects.

Fault-injected jobs always run on a fresh, un-pooled context: fault
probes are counted per context, and a pooled context's probe history
would desynchronise the deterministic schedule.

**Distributed tracing** (``trace=True``): the runtime owns one
long-lived recording :class:`Instrumentation` shared by its front end
and every pooled context.  Each traced job is wrapped in a
``worker:job`` span; the job's slice of the span list plus a merged copy
of the runtime's metrics registry travel back *in-band* on the result
(as transport side-channel fields, exactly like ``cache_delta``), where
the service grafts the spans into the per-job trace tree and folds the
registry into the ``/v1/metrics`` merge.  Shipped spans are dropped from
the runtime's tracer, so a long-lived worker retains none between jobs.
With tracing off the bundle is ``NULL_INSTRUMENTATION`` and nothing is
shipped — the result documents are byte-identical to the untraced serve
plane.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Optional

from ..api import Japonica
from ..cache.artifacts import ArtifactCache
from ..errors import DeadlineExceeded, JaponicaError, RuntimeFaultError
from ..obs import PLANE_HOST, Instrumentation, MetricsRegistry
from ..obs.distrib import TraceContext, adopt_spans, span_doc
from ..runtime.deadline import Deadline
from .degrade import LEVEL_DROP_REPORT
from .jobs import (
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_OK,
    JobResult,
    JobSpec,
)

#: Pooled contexts kept per runtime (LRU beyond this).
MAX_POOLED_CONTEXTS = 16


class WorkerRuntime:
    """One worker's long-lived pipeline state."""

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        cache_dir: Optional[str] = None,
        trace: bool = False,
        name: str = "worker",
    ):
        self.cache = cache if cache is not None else ArtifactCache(
            cache_dir=cache_dir
        )
        self.name = name
        self.traced = bool(trace)
        #: one recording bundle for the runtime's whole life when traced;
        #: the null bundle (no state, no overhead) otherwise
        self.obs = (
            Instrumentation.recording() if self.traced
            else Instrumentation.disabled()
        )
        self.japonica = Japonica(
            cache=self.cache, obs=self.obs if self.traced else None
        )
        self._contexts: OrderedDict[tuple, object] = OrderedDict()
        self.jobs_executed = 0
        self.contexts_reused = 0
        #: isolated per-report instrumentation of the last traced job
        #: (report jobs need their own bundle so the insight report only
        #: sees that run; its spans are still shipped with the result)
        self._report_obs: Optional[Instrumentation] = None

    # -- context pool -----------------------------------------------------

    def _pooled_context(self, workload, job: JobSpec):
        key = (workload.name, job.n, job.seed, job.devices)
        ctx = self._contexts.get(key)
        if ctx is not None:
            self._contexts.move_to_end(key)
            self.contexts_reused += 1
            self.obs.metrics.counter(
                "serve.worker.context_reuse", PLANE_HOST
            ).inc()
            return ctx
        ctx = workload.make_context(
            cache=self.cache, devices=job.devices,
            obs=self.obs if self.traced else None,
        )
        self._contexts[key] = ctx
        while len(self._contexts) > MAX_POOLED_CONTEXTS:
            self._contexts.popitem(last=False)
        return ctx

    # -- execution --------------------------------------------------------

    def execute(
        self,
        job: JobSpec,
        degrade_level: int = 0,
        deadline: Optional[Deadline] = None,
        trace: Optional[TraceContext] = None,
    ) -> JobResult:
        """Run one job to a terminal :class:`JobResult` (never raises).

        When the runtime is traced and a :class:`TraceContext` arrives
        with the job, the execution is wrapped in a ``worker:job`` span
        and the job's spans plus a merged copy of the registry ship back
        on the result's transport side channel.
        """
        if not (self.traced and trace is not None):
            return self._execute(job, degrade_level, deadline)

        tracer = self.obs.tracer
        base = len(tracer.spans)
        self._report_obs = None
        with tracer.span(
            "worker:job", "serve.worker", plane=PLANE_HOST,
            job_id=job.job_id, tenant=job.tenant,
            trace_id=trace.trace_id, worker=self.name,
        ) as sp:
            result = self._execute(job, degrade_level, deadline)
            sp.annotate(status=result.status)
        if self._report_obs is not None:
            adopt_spans(
                tracer,
                [span_doc(s) for s in self._report_obs.tracer.spans],
                parent_id=sp.span.id,
            )
            self._report_obs = None
        docs = [span_doc(s) for s in tracer.spans[base:]]
        del tracer.spans[base:]
        m = self.obs.metrics
        m.counter("serve.worker.jobs", PLANE_HOST).inc()
        m.counter(f"serve.worker.status.{result.status}", PLANE_HOST).inc()
        m.histogram("serve.worker.wall_ms", PLANE_HOST).observe(
            result.wall_ms
        )
        result.__dict__["trace_spans"] = docs
        result.__dict__["worker_metrics"] = MetricsRegistry().merge(m)
        result.__dict__["worker_name"] = self.name
        return result

    def _execute(
        self,
        job: JobSpec,
        degrade_level: int = 0,
        deadline: Optional[Deadline] = None,
    ) -> JobResult:
        t0 = time.perf_counter()
        hits0, misses0 = self.cache.hits, self.cache.misses
        try:
            if job.kind == "compile":
                result = self._execute_compile(job, deadline)
            else:
                result = self._execute_run(job, degrade_level, deadline)
        except DeadlineExceeded as exc:
            result = JobResult(
                job.job_id, job.tenant, STATUS_DEADLINE, kind=job.kind,
                error=str(exc),
            )
        except (RuntimeFaultError, JaponicaError) as exc:
            result = JobResult(
                job.job_id, job.tenant, STATUS_FAILED, kind=job.kind,
                error=f"{type(exc).__name__}: {exc}",
            )
        except Exception as exc:
            # unexpected pipeline error (e.g. a numpy TypeError): the
            # "never raises" contract still holds — surface it as a
            # terminal failure so the service settles the job
            result = JobResult(
                job.job_id, job.tenant, STATUS_FAILED, kind=job.kind,
                error=f"unexpected {type(exc).__name__}: {exc}",
            )
        self.jobs_executed += 1
        result.wall_ms = (time.perf_counter() - t0) * 1e3
        result.degrade_level = degrade_level
        # stash the per-job artifact-cache delta for the service's
        # aggregate hit-rate metric (not a dataclass field: it is
        # transport metadata, not part of the client-facing answer)
        result.__dict__["cache_delta"] = {
            "hits": self.cache.hits - hits0,
            "misses": self.cache.misses - misses0,
        }
        return result

    def execute_dict(self, doc: dict, degrade_level: int = 0,
                     deadline_remaining_s: Optional[float] = None,
                     trace_doc: Optional[dict] = None) -> dict:
        """Process-transport entry: dict in, dict out (picklable)."""
        job = JobSpec.from_dict(doc)
        trace = (
            TraceContext.from_doc(trace_doc) if trace_doc is not None
            else None
        )
        deadline = (
            Deadline(deadline_remaining_s)
            if deadline_remaining_s is not None and deadline_remaining_s > 0
            else None
        )
        if deadline_remaining_s is not None and deadline_remaining_s <= 0:
            return JobResult(
                job.job_id, job.tenant, STATUS_DEADLINE, kind=job.kind,
                error="deadline expired before the worker started",
            ).to_dict()
        result = self.execute(job, degrade_level, deadline, trace=trace)
        doc = result.to_dict()
        doc["cache_delta"] = result.__dict__.get(
            "cache_delta", {"hits": 0, "misses": 0}
        )
        # the trace/metrics side channel crosses the pipe explicitly;
        # the pool pops it back off before the client ever sees the doc
        for key in ("trace_spans", "worker_metrics", "worker_name"):
            if key in result.__dict__:
                doc[key] = result.__dict__[key]
        return doc

    def _execute_compile(
        self, job: JobSpec, deadline: Optional[Deadline]
    ) -> JobResult:
        if deadline is not None:
            deadline.check("compile")
        program = self.japonica.compile(job.source)
        loops = []
        for method, mt in program.unit.methods.items():
            for tl in mt.loops:
                loops.append({
                    "method": method,
                    "loop": tl.id,
                    "status": tl.analysis.status.value,
                    "cpu_only": tl.cpu_only,
                })
        return JobResult(
            job.job_id, job.tenant, STATUS_OK, kind="compile",
            compile={"methods": program.methods, "loops": loops},
        )

    def _execute_run(
        self, job: JobSpec, degrade_level: int, deadline: Optional[Deadline]
    ) -> JobResult:
        from ..workloads import get

        try:
            workload = get(job.workload)
        except KeyError as exc:
            raise JaponicaError(str(exc)) from None
        if deadline is not None:
            deadline.check("compile")

        want_report = job.report and degrade_level < LEVEL_DROP_REPORT
        degraded = []
        if job.report and not want_report:
            degraded.append("report_dropped")

        obs = None
        if want_report:
            # the traced path needs a recording Instrumentation threaded
            # through compile and context, so it cannot use the pools
            obs = Instrumentation.recording()
            self._report_obs = obs
            program = Japonica(obs=obs, cache=self.cache).compile(
                workload.source
            )
            ctx = workload.make_context(
                obs=obs, cache=self.cache, devices=job.devices
            )
        elif job.faults:
            program = self.japonica.compile(workload.source)
            ctx = workload.make_context(
                cache=self.cache, devices=job.devices,
                obs=self.obs if self.traced else None,
            )
        else:
            program = self.japonica.compile(workload.source)
            ctx = self._pooled_context(workload, job)

        binds = workload.bindings(n=job.n, seed=job.seed)
        ctx.deadline = deadline
        try:
            result = program.run(
                workload.method,
                strategy=job.strategy,
                scheme=job.scheme or workload.scheme,
                context=ctx,
                faults=job.faults,
                fault_seed=job.fault_seed,
                **binds,
            )
        finally:
            ctx.deadline = None
            if job.faults:
                # never leave a schedule armed on a context (pooled
                # contexts are never used for faulted jobs, but the
                # schedule must not outlive its job either way)
                ctx.faults.install(None)

        if job.verify and workload.reference is not None:
            try:
                workload.verify(result, binds)
            except AssertionError as exc:
                raise JaponicaError(f"verification failed: {exc}") from None

        report_section = None
        if want_report and obs is not None:
            from ..obs.insight import analyze_run

            timelines = [
                (f"{job.strategy}:{lid}", res.timeline)
                for lid, res in result.loop_results
                if res.timeline is not None
            ]
            report_section = analyze_run(
                timelines, metrics=obs.metrics, tracer=obs.tracer,
                sim_time_s=result.sim_time_s,
            )

        resilience = None
        if result.resilience is not None:
            r = result.resilience
            resilience = {
                "faults_seen": r.faults_seen,
                "recoveries": r.recoveries,
                "degradations": r.degradations,
                "penalty_ms": r.penalty_s * 1e3,
            }

        return JobResult(
            job.job_id, job.tenant, STATUS_OK, kind="run",
            sim_time_ms=result.sim_time_ms,
            host_time_ms=result.host_time_s * 1e3,
            modes=sorted({res.mode for _, res in result.loop_results}),
            report=report_section,
            resilience=resilience,
            degraded=degraded,
        )
