"""Layer spans for the traced runs: the wrappers, the recorder, self time.

The benchmark never edits the program.  A traced run wraps the public
entry point of each layer for its duration (``Recorder.install_*``) and
puts the originals back afterwards (``Recorder.uninstall``).

A span is a tuple ``(op, layer, t0, t1, tag)``:

* ``op`` names the timed op the work was for: a pipeline run or a
  served request (its ``job_id``);
* ``t0`` and ``t1`` are ``time.perf_counter`` readings.  On Linux that
  is CLOCK_MONOTONIC, which all processes share, so the spans of a
  forked serve worker line up with the parent's;
* ``tag`` refines the layer: ``hit``/``miss`` for the caches,
  ``ensure``/``run`` for the profiler, the tier of a kernel compile.

Spans stay in memory and are written once, at the end; a forked serve
worker writes its own when it exits.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter as now

#: The current op's id, in a one-element list.  The HTTP edge learns a
#: request's id only once the body is parsed, and fills it in then.
CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_op", default=None
)


def current_op():
    holder = CURRENT.get()
    return holder[0] if holder is not None else None


def _hit_or_miss(value) -> str:
    return "miss" if value is None else "hit"


KERNEL_FLAVORS = ("direct", "buffered", "tracing", "vectorized", "specvec")

#: (module, attribute, layer, tag) of every layer entry point the
#: pipeline reaches; a callable tag derives the tag from the result
PIPELINE_LAYERS = (
    ("repro.translate.translator", "parse_program", "lang.parse", ""),
    ("repro.translate.translator", "analyze_loop",
     "analysis.analyze_loop", ""),
    ("repro.translate.translator", "Translator.translate_source",
     "translate", ""),
    ("repro.translate.translator", "Translator.translate", "translate", ""),
    ("repro.cache.artifacts", "ArtifactCache.get", "cache", _hit_or_miss),
    ("repro.scheduler.context", "ExecutionContext.ensure_profile",
     "profiler", "ensure"),
    ("repro.scheduler.context", "profile_loop", "profiler", "run"),
    ("repro.scheduler.sharing", "TaskSharingScheduler.execute",
     "scheduler.sharing", ""),
    ("repro.scheduler.stealing", "TaskStealingScheduler.execute",
     "scheduler.stealing", ""),
    ("repro.tls.engine", "GpuTlsEngine.execute", "tls", ""),
    ("repro.gpusim.device", "GpuDevice.launch", "gpusim", ""),
    ("repro.cpusim.executor", "CpuExecutor.run_parallel", "cpusim", ""),
    ("repro.cpusim.executor", "CpuExecutor.run_serial", "cpusim", ""),
    ("repro.api", "run_method_host", "hosteval", ""),
    ("repro.ir.native.dispatch", "KernelDispatcher.run_direct",
     "kernel.direct", ""),
    ("repro.ir.native.dispatch", "KernelDispatcher.run_buffered",
     "kernel.buffered", ""),
    ("repro.ir.native.dispatch", "KernelDispatcher.run_tracing",
     "kernel.tracing", ""),
    ("repro.ir.vectorizer", "VectorizedKernel.run_range",
     "kernel.vectorized", ""),
    ("repro.ir.specvec", "VectorizedSpecKernel.run_buffered",
     "kernel.specvec", ""),
    # compiling a kernel is constructing its object; the dispatcher's
    # KernelCache builds one per process, fingerprint and tier
    ("repro.ir.native.dispatch", "CompiledKernel", "kernel.compile",
     "interp"),
    ("repro.ir.native.dispatch", "NativeKernel", "kernel.compile", "src"),
    ("repro.ir.native.dispatch", "VectorizedKernel", "kernel.compile",
     "vectorized"),
    ("repro.ir.native.dispatch", "VectorizedSpecKernel", "kernel.compile",
     "specvec"),
    ("repro.workloads.base", "Workload.bindings", "workloads.bindings", ""),
    ("repro.workloads.base", "Workload.verify", "workloads.verify", ""),
)

#: the serve plane's admission gates, in the order a request meets them
SERVE_GATES = (
    ("repro.serve.breaker", "CircuitBreaker.allow"),
    ("repro.serve.degrade", "DegradationLadder.observe"),
    ("repro.serve.admission", "AdmissionController.admit"),
)

#: per-layer metrics (--trace 1), in BENCHMARK.json order: name -> unit.
#: Counts and seconds are means per traced op.
PER_LAYER = {
    "import.repro_api_s": "s",
    "import.networkx_s": "s",
    "import.numpy_s": "s",
    "lang.parse.calls": "count",
    "lang.parse.self_s": "s",
    "analysis.analyze_loop.calls": "count",
    "analysis.analyze_loop.self_s": "s",
    "translate.self_s": "s",
    "cache.get_calls": "count",
    "cache.hit_ratio": "ratio",
    "cache.self_s": "s",
    "profiler.ensure_profile_calls": "count",
    "profiler.runs": "count",
    "profiler.self_s": "s",
    "scheduler.sharing.calls": "count",
    "scheduler.sharing.self_s": "s",
    "scheduler.stealing.calls": "count",
    "scheduler.stealing.self_s": "s",
    "tls.self_s": "s",
    "gpusim.self_s": "s",
    "cpusim.self_s": "s",
    "hosteval.self_s": "s",
    **{f"kernel.launches.{k}": "count" for k in KERNEL_FLAVORS},
    **{f"kernel.self_s.{k}": "s" for k in KERNEL_FLAVORS},
    "kernel.compile.calls": "count",
    "kernel.compile.s": "s",
    "serve.http_s": "s",
    "serve.gates_s": "s",
    "serve.queue_wait_s": "s",
    "serve.dispatch_s": "s",
    "serve.pool_s": "s",
    "serve.pipe_s": "s",
    "serve.worker_s": "s",
    "serve.worker_self_s": "s",
    "serve.results_hit_ratio": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "serve.context_reuse_ratio": "ratio",
    "workloads.bindings_s": "s",
    "workloads.verify_s": "s",
    "bench.traced_ops": "count",
    "bench.op_wall_s": "s",
    "bench.unattributed_ratio": "ratio",
    "bench.outside_ratio": "ratio",
    "bench.gen_lateness_p95_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
}

#: per-op call counts: metric -> (layer, tag); tag None counts every call
_CALLS = {
    "lang.parse.calls": ("lang.parse", None),
    "analysis.analyze_loop.calls": ("analysis.analyze_loop", None),
    "cache.get_calls": ("cache", None),
    "profiler.ensure_profile_calls": ("profiler", "ensure"),
    "profiler.runs": ("profiler", "run"),
    "scheduler.sharing.calls": ("scheduler.sharing", None),
    "scheduler.stealing.calls": ("scheduler.stealing", None),
    **{f"kernel.launches.{k}": (f"kernel.{k}", None) for k in KERNEL_FLAVORS},
    "kernel.compile.calls": ("kernel.compile", None),
}

#: per-op self seconds: metric -> layer
_SELF = {
    "lang.parse.self_s": "lang.parse",
    "analysis.analyze_loop.self_s": "analysis.analyze_loop",
    "translate.self_s": "translate",
    "cache.self_s": "cache",
    "profiler.self_s": "profiler",
    "scheduler.sharing.self_s": "scheduler.sharing",
    "scheduler.stealing.self_s": "scheduler.stealing",
    "tls.self_s": "tls",
    "gpusim.self_s": "gpusim",
    "cpusim.self_s": "cpusim",
    "hosteval.self_s": "hosteval",
    **{f"kernel.self_s.{k}": f"kernel.{k}" for k in KERNEL_FLAVORS},
    "kernel.compile.s": "kernel.compile",
    "serve.http_s": "serve.http",
    "serve.gates_s": "serve.gates",
    "serve.queue_wait_s": "serve.queue_wait",
    "serve.dispatch_s": "serve.dispatch",
    "serve.pool_s": "serve.pool",
    "serve.worker_self_s": "serve.worker",
}

#: per-op busy seconds (whole span durations): metric -> layer
_BUSY = {
    "workloads.bindings_s": "workloads.bindings",
    "workloads.verify_s": "workloads.verify",
}

#: a traced run is invalid when its spans spend more than this share of
#: the op wall time outside their parent span (or outside the op)
OUTSIDE_TOLERANCE = 0.01


def _timed(record, layer, fn, tag="", op_of=None):
    tag_of = tag if callable(tag) else None

    def timed(*args, **kwargs):
        t0 = now()
        value = fn(*args, **kwargs)
        record((
            op_of(args) if op_of else current_op(), layer, t0, now(),
            tag_of(value) if tag_of else tag,
        ))
        return value

    if not isinstance(fn, type):
        functools.update_wrapper(timed, fn)
    return timed


def _timed_async(record, layer, fn, op_of, tag=""):
    @functools.wraps(fn)
    async def timed(*args, **kwargs):
        t0 = now()
        try:
            return await fn(*args, **kwargs)
        finally:
            record((op_of(args), layer, t0, now(), tag))

    return timed


def _http_edge(record, fn):
    """``ServeServer._handle``: one connection, in a task of its own."""
    @functools.wraps(fn)
    async def handle(*args, **kwargs):
        holder = [None]
        CURRENT.set(holder)  # the task's own context copy
        t0 = now()
        try:
            return await fn(*args, **kwargs)
        finally:
            record((holder[0], "serve.http", t0, now(), ""))

    return handle


def _learn_op(fn):
    """``CompilationService.submit``: name the HTTP task's op."""
    @functools.wraps(fn)
    async def submit(self, job, *args, **kwargs):
        holder = CURRENT.get()
        if holder is not None:
            holder[0] = job.job_id
        return await fn(self, job, *args, **kwargs)

    return submit


def _worker_execute(record, fn):
    """``WorkerRuntime.execute``: the worker's whole share of one job."""
    @functools.wraps(fn)
    def execute(self, job, *args, **kwargs):
        token = CURRENT.set([job.job_id])
        reused = self.contexts_reused
        t0 = now()
        try:
            return fn(self, job, *args, **kwargs)
        finally:
            tag = "reuse" if self.contexts_reused > reused else "fresh"
            record((job.job_id, "serve.worker", t0, now(), tag))
            CURRENT.reset(token)

    return execute


def _job_of(args):
    return args[1].job_id


class Recorder:
    """Spans in memory, and the patches that record them."""

    def __init__(self):
        #: only ever mutated in place: the wrappers hold its append
        self.spans: list[tuple] = []
        self._undo: list[tuple] = []

    def patch(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[name]
        if isinstance(original, staticmethod):
            setattr(owner, name, staticmethod(make(original.__func__)))
        else:
            setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def install_pipeline(self) -> None:
        record = self.spans.append
        for module, attr, layer, tag in PIPELINE_LAYERS:
            self.patch(module, attr,
                       lambda fn, layer=layer, tag=tag:
                       _timed(record, layer, fn, tag))

    def install_serve(self, dump_dir: str) -> None:
        """The serve plane's layers, then the pipeline's.

        A process worker forked afterwards inherits the wrappers and
        writes its spans to ``dump_dir`` when it exits.
        """
        record = self.spans.append
        self.patch("repro.serve.server", "ServeServer._handle",
                   lambda fn: _http_edge(record, fn))
        self.patch("repro.serve.service", "CompilationService.submit",
                   _learn_op)
        for module, attr in SERVE_GATES:
            self.patch(module, attr,
                       lambda fn: _timed(record, "serve.gates", fn))
        self.patch("repro.serve.service",
                   "CompilationService._cached_answer",
                   lambda fn: _timed(record, "serve.results", fn,
                                     _hit_or_miss, _job_of))
        self.patch("repro.serve.service", "CompilationService._execute",
                   lambda fn: _timed_async(record, "serve.dispatch", fn,
                                           _job_of))
        self.patch("repro.serve.pool", "WorkerPool.run",
                   lambda fn: _timed_async(record, "serve.pool", fn,
                                           _job_of, "run"))
        self.patch("repro.serve.pool", "WorkerPool._exchange",
                   lambda fn: _timed(record, "serve.pool", fn, "exchange",
                                     lambda args: args[1][0]["job_id"]))
        self.patch("repro.serve.worker", "WorkerRuntime.execute",
                   lambda fn: _worker_execute(record, fn))
        self.patch("repro.serve.pool", "_process_worker_main",
                   lambda fn: self._dumping(fn, dump_dir))
        self.install_pipeline()

    def _dumping(self, fn, dump_dir: str):
        def worker_main(*args, **kwargs):
            del self.spans[:]  # the fork copied the parent's spans
            try:
                return fn(*args, **kwargs)
            finally:
                self.dump(os.path.join(dump_dir, f"worker-{os.getpid()}.json"))

        return worker_main

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def load(self, path: str) -> None:
        with open(path) as fh:
            self.spans.extend(tuple(span) for span in json.load(fh))


def attribute(spans, roots: dict) -> tuple[dict, float]:
    """Self seconds per layer over the ops in ``roots``, and outside seconds.

    ``roots`` maps an op to its ``(t0, t1)``: the op's root span, layer
    ``bench.op``, whose self time is the unattributed rest.  A span's
    parent is the innermost span of the same op still open when it
    starts.  Its raw duration counts to its own layer and is taken from
    its parent's, so the self times of one op sum to its wall time.
    That split is right only if spans nest: the second value is the time
    spans spend outside their parent, which a wrapper that nests wrongly
    or a worker span that outlives its request makes nonzero.  Spans
    wholly outside their op (the benchmark's own input generation and
    check) are not part of it.
    """
    by_op = defaultdict(list)
    for span in spans:
        op, _layer, t0, t1, _tag = span
        if op in roots and roots[op][0] < t1 and t0 < roots[op][1]:
            by_op[op].append(span)
    self_s: dict = defaultdict(float)
    outside = 0.0
    for op, (r0, r1) in roots.items():
        self_s["bench.op"] += r1 - r0
        stack = [("bench.op", r0, r1)]
        for _op, layer, t0, t1, _tag in sorted(
            by_op[op], key=lambda s: (s[2], -s[3])
        ):
            while len(stack) > 1 and stack[-1][2] <= t0:
                stack.pop()
            parent, p0, p1 = stack[-1]
            outside += max(0.0, p0 - t0) + max(0.0, t1 - p1)
            self_s[layer] += t1 - t0
            self_s[parent] -= t1 - t0
            stack.append((layer, t0, t1))
    return dict(self_s), outside


def layer_metrics(spans, roots: dict) -> tuple[dict, list[str]]:
    """Per-op layer metrics of the ops in ``roots``, and any problems.

    Every ``PER_LAYER`` name is present; the ones no span feeds (the
    imports, the serve pipe, the generator) stay 0 for the caller.
    """
    n = len(roots)
    wall = sum(t1 - t0 for t0, t1 in roots.values())
    self_s, outside = attribute(spans, roots)
    calls: Counter = Counter()
    busy: dict = defaultdict(float)
    for op, layer, t0, t1, tag in spans:
        if op in roots:
            calls[layer, None] += 1
            calls[layer, tag] += 1
            busy[layer] += t1 - t0
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update({m: calls[key] / n for m, key in _CALLS.items()})
    out.update({m: self_s.get(layer, 0.0) / n for m, layer in _SELF.items()})
    out.update({m: busy[layer] / n for m, layer in _BUSY.items()})
    lookups = calls["cache", None]
    out["cache.hit_ratio"] = calls["cache", "hit"] / lookups if lookups else 0.0
    out["serve.results_hit_ratio"] = calls["serve.results", "hit"] / n
    jobs = calls["serve.worker", None]
    out["serve.context_reuse_ratio"] = (
        calls["serve.worker", "reuse"] / jobs if jobs else 0.0
    )
    out["bench.traced_ops"] = n
    out["bench.op_wall_s"] = wall / n
    out["bench.unattributed_ratio"] = self_s["bench.op"] / wall
    out["bench.outside_ratio"] = outside / wall
    problems = []
    if out["bench.outside_ratio"] > OUTSIDE_TOLERANCE:
        problems.append(
            f"spans spend {out['bench.outside_ratio']:.2%} of the op wall "
            f"time outside their parent (tolerance {OUTSIDE_TOLERANCE:.0%})"
        )
    return out, problems
