"""CPU-side execution: the "multiple Java threads" half of the dual
executable.

Functionally, CPU execution writes host arrays directly (DOALL chunks are
independent; sequential modes run in iteration order).  Simulated time
comes from the cost model: work divided over the worker threads with a
fork/join overhead, memory-bandwidth roofline applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import WorkerFault
from ..faults.plane import SITE_CPU_WORKER
from ..faults.resilience import (
    FaultRuntime,
    restore_arrays,
    snapshot_arrays,
)
from ..ir.instructions import IRFunction
from ..ir.interpreter import (
    ArrayStorage,
    Counts,
)
from ..ir.native import KernelDispatcher
from ..obs.metrics import NULL_INSTRUMENTATION, Instrumentation
from ..runtime.costmodel import CostModel
from ..runtime.platform import CpuSpec


@dataclass
class CpuRunResult:
    """Outcome of executing an index set on the CPU side."""

    counts: Counts
    sim_time_s: float
    threads: int


class CpuExecutor:
    """Executes kernel IR on the modelled multicore CPU."""

    def __init__(
        self,
        spec: CpuSpec,
        cost: CostModel,
        faults: Optional[FaultRuntime] = None,
        obs: Optional[Instrumentation] = None,
        kernels: Optional[KernelDispatcher] = None,
    ):
        self.spec = spec
        self.cost = cost
        self.faults = faults
        self.obs = obs or NULL_INSTRUMENTATION
        #: tiered kernel backend, shared with the GPU devices of the
        #: same context; artifacts are cached process-wide by content
        #: fingerprint, not id(fn)
        self.kernels = kernels or KernelDispatcher(obs=self.obs)

    def run_parallel(
        self,
        fn: IRFunction,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
        indices: Sequence[int],
        threads: Optional[int] = None,
        elem_bytes: float = 8.0,
        allow_vectorized: bool = True,
    ) -> CpuRunResult:
        """Run a DOALL index set with the CPU thread pool.

        ``allow_vectorized`` lets the lanes run in lock-step; callers
        withhold it when iteration order must be respected.
        """
        threads = threads if threads is not None else self.spec.worker_threads
        counts, extra_s = self._execute(
            fn, storage, scalar_env, indices, allow_vectorized
        )
        sim_time = extra_s + self.cost.cpu_time(
            counts, threads=threads, elem_bytes=elem_bytes
        )
        self._record_run("parallel", len(indices), threads, sim_time)
        return CpuRunResult(counts, sim_time, threads)

    def run_serial(
        self,
        fn: IRFunction,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
        indices: Sequence[int],
        elem_bytes: float = 8.0,
    ) -> CpuRunResult:
        """Run iterations sequentially, in the given order, on one thread.

        Sequential execution must respect iteration order (it is the mode
        C fallback for loops carrying true dependencies), so the lanes
        run one after another, never in lock-step.
        """
        counts, extra_s = self._execute(
            fn, storage, scalar_env, indices, allow_vectorized=False
        )
        sim_time = extra_s + self.cost.cpu_time(
            counts, threads=1, elem_bytes=elem_bytes
        )
        self._record_run("serial", len(indices), 1, sim_time)
        return CpuRunResult(counts, sim_time, 1)

    def _record_run(
        self, kind: str, n: int, threads: int, sim_time: float
    ) -> None:
        m = self.obs.metrics
        m.counter("cpu.chunks").inc()
        m.counter(f"cpu.chunks.{kind}").inc()
        m.counter("cpu.iterations").inc(n)
        m.counter("cpu.time_s").inc(sim_time)
        m.histogram("cpu.threads").observe(threads)

    def _execute(
        self,
        fn: IRFunction,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
        indices: Sequence[int],
        allow_vectorized: bool,
    ) -> tuple[Counts, float]:
        """Run the index set; returns (counts, extra simulated seconds).

        Under fault injection a chunk may die mid-flight (an injected
        :class:`WorkerFault`).  The chunk's written arrays are restored
        from a pre-chunk snapshot and the chunk restarts, bounded by the
        resilience policy; the dead worker's partial iterations stay in
        the dynamic counts (wasted work costs real simulated time) and
        each restart adds a backoff window.  Exhausting the budget raises
        a typed :class:`WorkerFault` for the schedulers to degrade on.
        """
        faults = self.faults
        if faults is None or not faults.enabled:
            return self._execute_once(fn, storage, scalar_env, indices,
                                      allow_vectorized, None), 0.0
        policy = faults.policy
        written = fn.stored_arrays
        extra_s = 0.0
        retries = 0
        while True:
            snapshot = snapshot_arrays(storage, written)
            try:
                counts = self._execute_once(
                    fn, storage, scalar_env, indices, allow_vectorized, faults
                )
                return counts, extra_s
            except WorkerFault as err:
                if not err.injected:
                    raise
                restore_arrays(storage, snapshot)
                if retries >= policy.max_retries:
                    # drain the partial counts so they are not double
                    # charged by a later run of the same kernel
                    self.kernels.take_counts(fn)
                    raise WorkerFault(
                        f"CPU worker kept dying after {retries + 1} attempts",
                        completed=err.completed,
                        site=SITE_CPU_WORKER,
                        at_s=faults.recorder.clock_s,
                        retries=retries + 1,
                    )
                backoff = faults.backoff_for(SITE_CPU_WORKER, retries)
                extra_s += backoff
                faults.recovered(
                    SITE_CPU_WORKER, "worker-restart",
                    penalty_s=backoff, retries=retries + 1,
                    detail=f"completed={err.completed}/{len(indices)}",
                )
                m = self.obs.metrics
                m.counter("resilience.retry.attempts").inc()
                m.counter("resilience.backoff_s").inc(backoff)
                retries += 1

    def _execute_once(
        self,
        fn: IRFunction,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
        indices: Sequence[int],
        allow_vectorized: bool,
        faults: Optional[FaultRuntime],
    ) -> Counts:
        directive = (
            faults.probe(SITE_CPU_WORKER) if faults is not None else None
        )
        if directive is not None and (
            allow_vectorized and fn.is_straightline and indices
        ):
            # a straight-line chunk runs all at once: the worker dies
            # before it starts, and nothing ran
            raise WorkerFault(
                "injected worker failure (before chunk)",
                completed=0,
                site=SITE_CPU_WORKER,
                injected=True,
            )
        dies_at = (
            int(directive.fraction * len(indices))
            if directive is not None
            else None
        )
        if dies_at is not None and dies_at < len(indices):
            # the worker executes its prefix, then dies mid-chunk; the
            # partial counts stay accumulated (wasted work costs time)
            self.kernels.run_direct(
                fn, indices[:dies_at], scalar_env, storage,
                parallel=allow_vectorized,
            )
            raise WorkerFault(
                f"injected worker failure mid-chunk at "
                f"{dies_at}/{len(indices)}",
                completed=dies_at,
                site=SITE_CPU_WORKER,
                injected=True,
            )
        self.kernels.run_direct(
            fn, indices, scalar_env, storage, parallel=allow_vectorized
        )
        if dies_at is not None:
            # fraction rounded to the chunk end: the worker died right
            # after its last iteration, before reporting completion
            raise WorkerFault(
                "injected worker failure at chunk end",
                completed=len(indices),
                site=SITE_CPU_WORKER,
                injected=True,
            )
        return self.kernels.take_counts(fn)
