"""Worker pool: thread or process workers around :class:`WorkerRuntime`.

Two backends share one contract — ``await pool.run(job, ...)`` returns a
terminal :class:`JobResult` or raises :class:`WorkerDied`:

* ``thread`` (default) — a thread pool in-process; each thread owns a
  :class:`WorkerRuntime` and all threads share one thread-safe
  :class:`ArtifactCache`.  Deterministic and cheap: the backend used by
  the test and bench planes.
* ``process`` — real child processes (fork where available), each with
  its own runtime; the artifact cache is shared through the crash-safe
  on-disk layer (``cache_dir``).  A worker killed mid-job is detected by
  liveness polling, replaced, and the job surfaces as
  :class:`WorkerDied` for the service to retry.

Worker-death injection (site ``serve.worker``) is decided *in the event
loop* before dispatch, keyed to the pool's fault schedule by the global
dispatch index — so a chaos run replayed with the same ``--fault-seed``
kills the same jobs' workers regardless of thread/process timing.

When the pool is built with ``trace=True`` each runtime records spans
and metrics; the trace context crosses the process pipe as a plain dict
next to the job document, and the worker's span slice plus a copy of
its registry ride back on the result document.  :class:`WorkerDied` raised
here always carries the lost job's identity (job id, tenant, trace id)
so death messages in logs and flight dumps are never anonymous.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..cache.artifacts import ArtifactCache
from ..errors import JaponicaError, WorkerDied
from ..faults.plane import SITE_SERVE_WORKER
from ..faults.resilience import FaultRuntime
from ..obs.distrib import TraceContext
from ..runtime.deadline import Deadline
from .jobs import JobResult, JobSpec
from .worker import WorkerRuntime

BACKENDS = ("thread", "process")

#: Liveness poll interval while waiting on a process worker (seconds).
_POLL_S = 0.02

#: Result-doc keys that are pool transport, not client answer fields.
_SIDE_CHANNEL_KEYS = ("trace_spans", "worker_metrics", "worker_name")


def _process_worker_main(conn, cache_dir: Optional[str],
                         name: str = "serve-w", trace: bool = False) -> None:
    """Child-process loop: recv (job, level, deadline, trace) -> result."""
    runtime = WorkerRuntime(cache_dir=cache_dir, trace=trace, name=name)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if msg is None:
            break
        job_doc, degrade_level, deadline_remaining_s, trace_doc = msg
        try:
            out = runtime.execute_dict(
                job_doc, degrade_level, deadline_remaining_s,
                trace_doc=trace_doc,
            )
        except BaseException as exc:  # the loop itself must never die
            out = JobResult(
                job_doc.get("job_id", ""), job_doc.get("tenant", ""),
                "failed", kind=job_doc.get("kind", "run"),
                error=f"worker loop: {exc!r}",
            ).to_dict()
            out["cache_delta"] = {"hits": 0, "misses": 0}
        try:
            conn.send(out)
        except (BrokenPipeError, OSError):
            break


class _ProcWorker:
    """Handle on one child process + its pipe."""

    def __init__(self, mp_ctx, cache_dir: Optional[str], name: str,
                 trace: bool = False):
        parent, child = mp_ctx.Pipe()
        self.conn = parent
        self.name = name
        self.process = mp_ctx.Process(
            target=_process_worker_main, args=(child, cache_dir, name, trace),
            name=name, daemon=True,
        )
        self.process.start()
        child.close()

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        if self.process.pid is not None and self.alive():
            os.kill(self.process.pid, signal.SIGKILL)
        self.process.join(timeout=5.0)

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=2.0)
        if self.alive():  # pragma: no cover - stuck worker
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.conn.close()


class WorkerPool:
    """N workers executing jobs on pooled runtimes."""

    def __init__(
        self,
        workers: int = 2,
        backend: str = "thread",
        cache_dir: Optional[str] = None,
        faults: Optional[FaultRuntime] = None,
        trace: bool = False,
    ):
        if workers < 1:
            raise JaponicaError(f"pool needs >= 1 worker, got {workers}")
        if backend not in BACKENDS:
            raise JaponicaError(
                f"unknown pool backend {backend!r}; expected one of {BACKENDS}"
            )
        self.workers = workers
        self.backend = backend
        self.cache_dir = cache_dir
        self.trace = bool(trace)
        #: fault runtime probed at ``serve.worker`` per dispatch
        self.faults = faults or FaultRuntime()
        self.worker_deaths = 0
        self.workers_spawned = 0
        # thread backend state
        self.cache = ArtifactCache(cache_dir=cache_dir)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._runtimes: dict[int, WorkerRuntime] = {}
        self._runtimes_lock = threading.Lock()
        self._thread_seq = 0
        # process backend state
        self._mp_ctx = None
        self._free: Optional[asyncio.Queue] = None
        self._procs: list[_ProcWorker] = []
        self._started = False

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            return
        if self.backend == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-serve",
            )
        else:
            method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
            self._mp_ctx = multiprocessing.get_context(method)
            self._free = asyncio.Queue()
            for _ in range(self.workers):
                self._free.put_nowait(self._spawn())
        self._started = True

    def _spawn(self) -> _ProcWorker:
        self.workers_spawned += 1
        w = _ProcWorker(
            self._mp_ctx, self.cache_dir, f"serve-w{self.workers_spawned}",
            trace=self.trace,
        )
        # track every live handle: stop() must reach workers that are
        # checked out of the free queue (a run() in flight), not only
        # the idle ones
        self._procs.append(w)
        return w

    async def stop(self) -> None:
        if not self._started:
            return
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        for w in self._procs:
            w.shutdown()
        self._procs = []
        if self._free is not None:
            # free-queue entries are all tracked in _procs and already
            # shut down above; just drop the references
            while not self._free.empty():
                self._free.get_nowait()
            self._free = None
        self._started = False

    # -- dispatch ---------------------------------------------------------

    async def run(
        self,
        job: JobSpec,
        degrade_level: int = 0,
        deadline: Optional[Deadline] = None,
        trace_ctx: Optional[TraceContext] = None,
    ) -> JobResult:
        """Execute ``job``; raises :class:`WorkerDied` on a lost worker."""
        if not self._started:
            await self.start()
        # decide worker death here, in the event loop, so the injection
        # sequence is a pure function of (seed, dispatch index)
        directive = (
            self.faults.probe(SITE_SERVE_WORKER)
            if self.faults.enabled
            else None
        )
        if self.backend == "thread":
            return await self._run_thread(job, degrade_level, deadline,
                                          die=directive is not None,
                                          trace_ctx=trace_ctx)
        return await self._run_process(job, degrade_level, deadline,
                                       die=directive is not None,
                                       trace_ctx=trace_ctx)

    def _died(self, message: str, worker: str, job: JobSpec,
              trace_ctx: Optional[TraceContext]) -> WorkerDied:
        return WorkerDied(
            f"{message} [job={job.job_id} tenant={job.tenant}"
            + (f" trace={trace_ctx.trace_id}" if trace_ctx else "") + "]",
            worker=worker, job_id=job.job_id, tenant=job.tenant,
            trace_id=trace_ctx.trace_id if trace_ctx else "",
        )

    # -- thread backend ---------------------------------------------------

    def _thread_runtime(self) -> WorkerRuntime:
        ident = threading.get_ident()
        with self._runtimes_lock:
            runtime = self._runtimes.get(ident)
            if runtime is None:
                self._thread_seq += 1
                runtime = WorkerRuntime(
                    cache=self.cache, trace=self.trace,
                    name=f"thread-w{self._thread_seq}",
                )
                self._runtimes[ident] = runtime
        return runtime

    async def _run_thread(
        self, job: JobSpec, degrade_level: int,
        deadline: Optional[Deadline], die: bool,
        trace_ctx: Optional[TraceContext] = None,
    ) -> JobResult:
        if die:
            # the worker dies before acknowledging: its in-memory pools
            # are lost (one runtime dropped), the job is never acked
            self.worker_deaths += 1
            name = "thread"
            with self._runtimes_lock:
                if self._runtimes:
                    dropped = self._runtimes.pop(next(iter(self._runtimes)))
                    name = dropped.name
            raise self._died(
                f"injected worker death before job {job.job_id}",
                worker=name, job=job, trace_ctx=trace_ctx,
            )
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._executor,
            lambda: self._thread_runtime().execute(
                job, degrade_level, deadline, trace=trace_ctx
            ),
        )

    # -- process backend --------------------------------------------------

    @staticmethod
    def _exchange(w: _ProcWorker, payload) -> dict:
        """Blocking send/recv with liveness polling (executor thread)."""
        try:
            w.conn.send(payload)
        except (BrokenPipeError, OSError):
            raise WorkerDied(f"worker {w.name} died before send",
                             worker=w.name) from None
        while True:
            try:
                if w.conn.poll(_POLL_S):
                    return w.conn.recv()
            except (EOFError, OSError):
                raise WorkerDied(f"worker {w.name} died mid-job",
                                 worker=w.name) from None
            if not w.alive():
                raise WorkerDied(f"worker {w.name} died mid-job",
                                 worker=w.name)

    async def _run_process(
        self, job: JobSpec, degrade_level: int,
        deadline: Optional[Deadline], die: bool,
        trace_ctx: Optional[TraceContext] = None,
    ) -> JobResult:
        w: _ProcWorker = await self._free.get()
        replaced = False
        try:
            if die:
                w.kill()  # real SIGKILL: the dispatch below must recover
            remaining = deadline.remaining() if deadline is not None else None
            loop = asyncio.get_running_loop()
            payload = (
                job.to_dict(), degrade_level, remaining,
                trace_ctx.to_doc() if trace_ctx is not None else None,
            )
            try:
                doc = await loop.run_in_executor(
                    None, self._exchange, w, payload
                )
            except WorkerDied as exc:
                self.worker_deaths += 1
                replaced = True
                try:
                    w.conn.close()
                except OSError:
                    pass
                w.process.join(timeout=1.0)
                if w in self._procs:
                    self._procs.remove(w)
                self._free.put_nowait(self._spawn())
                raise self._died(
                    str(exc), worker=w.name, job=job, trace_ctx=trace_ctx,
                ) from None
            cache_delta = doc.pop("cache_delta", {"hits": 0, "misses": 0})
            side = {
                key: doc.pop(key) for key in _SIDE_CHANNEL_KEYS if key in doc
            }
            result = JobResult.from_dict(doc)
            result.__dict__["cache_delta"] = cache_delta
            result.__dict__.update(side)
            return result
        finally:
            if not replaced:
                self._free.put_nowait(w)

    def stats(self) -> dict:
        return {
            "backend": self.backend,
            "workers": self.workers,
            "worker_deaths": self.worker_deaths,
            "workers_spawned": self.workers_spawned,
            "cache": self.cache.stats() if self.backend == "thread" else None,
        }
