"""Baseline executors the paper compares against.

* best serial (1-thread CPU),
* CPU-alone multithreaded (16 threads),
* GPU-alone (JNI-managed synchronous transfers with cyclic
  communication; TLS-alone for loops carrying true dependencies),
* simple cooperative 50 % / 50 % split.

Functional results of every baseline are identical to sequential
execution; only the simulated time differs.
"""

from __future__ import annotations

from typing import Optional

from ..errors import RuntimeFaultError, UnrecoverableFaultError, WorkerFault
from ..faults.resilience import (
    is_recoverable_fault,
    restore_arrays,
    snapshot_arrays,
)
from ..ir.interpreter import ArrayStorage
from ..runtime.clock import LANE_CPU, LANE_DMA, LANE_GPU, Timeline
from ..runtime.result import ExecutionResult
from ..tls.engine import GpuTlsEngine, TlsConfig
from ..translate.translator import TranslatedLoop
from .context import ExecutionContext, loop_coalescing
from .task import Task


def _has_true_dep(
    ctx: ExecutionContext, loop: TranslatedLoop, indices, scalar_env, storage
) -> bool:
    """Whether a baseline must treat the loop as carrying a true
    dependence: the static verdict when there is one, else the profile's.
    A profile that fails on a recoverable fault counts as a dependence
    (degradation ``profile->assume-td``)."""
    if loop.is_static_doall:
        return False
    if loop.analysis.has_static_true:
        return True
    try:
        profile = ctx.ensure_profile(loop, indices, scalar_env, storage)
    except RuntimeFaultError as err:
        if not is_recoverable_fault(err):
            raise
        ctx.faults.degraded(
            err.site, "profile->assume-td",
            detail="profiling failed; assuming a true dependence",
        )
        return True
    return profile.has_true


class SerialExecutor:
    """Best serial version: every loop on one CPU thread, in order."""

    name = "serial"

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx

    def execute(
        self, task: Task, storage: ArrayStorage, scalar_env: dict[str, object]
    ) -> ExecutionResult:
        loop = task.loop
        tl = Timeline()
        if loop.fn is not None:
            try:
                run = self.ctx.cpu.run_serial(
                    loop.fn, storage, scalar_env, task.indices(scalar_env),
                    elem_bytes=loop.elem_bytes,
                )
            except WorkerFault as err:
                if not err.injected:
                    raise
                # serial CPU is the bottom of every degradation ladder:
                # if it cannot complete, nothing can
                raise UnrecoverableFaultError(
                    f"serial execution failed: {err}",
                    site=err.site,
                    at_s=err.at_s,
                    retries=err.retries,
                )
            counts, time_s = run.counts, run.sim_time_s
        else:
            from ..runtime.hosteval import run_loop_sequential_host

            counts, time_s = run_loop_sequential_host(
                loop, storage, scalar_env, self.ctx.cost
            )
        tl.schedule(LANE_CPU, time_s, label="serial")
        return ExecutionResult(
            arrays=storage.arrays, sim_time_s=tl.makespan, counts=counts,
            timeline=tl, mode="serial",
        )


class CpuParallelExecutor:
    """CPU-alone: multithreaded where safe, sequential for TD loops.

    The hand-written CPU version privatizes FD-only loops (thread-local
    temporaries), so anything without a true dependence runs on all
    worker threads.
    """

    name = "cpu"

    def __init__(self, ctx: ExecutionContext, threads: Optional[int] = None):
        self.ctx = ctx
        self.threads = threads

    def execute(
        self, task: Task, storage: ArrayStorage, scalar_env: dict[str, object]
    ) -> ExecutionResult:
        loop = task.loop
        indices = task.indices(scalar_env)
        tl = Timeline()
        threads = self.threads or self.ctx.config.cpu_threads

        if loop.fn is None or _has_true_dep(
            self.ctx, loop, indices, scalar_env, storage
        ):
            serial = SerialExecutor(self.ctx)
            result = serial.execute(task, storage, scalar_env)
            result.mode = "cpu-seq"
            return result

        # FD-only loops are parallel-safe via thread-private copies, but
        # the vectorized fast path has no privatization: interpret them
        # in ascending order (sequential semantics) instead.
        profile = self.ctx.profiles.get(loop.id)
        fd_only = profile is not None and profile.has_false
        try:
            run = self.ctx.cpu.run_parallel(
                loop.fn, storage, scalar_env, indices, threads=threads,
                elem_bytes=loop.elem_bytes,
                allow_vectorized=not fd_only,
            )
        except WorkerFault as err:
            if not err.injected:
                raise
            # the executor restored array state before giving up; retry
            # the whole loop on the sequential last resort
            self.ctx.faults.degraded(
                err.site, "cpu-mt->cpu-seq", detail=str(err)
            )
            result = SerialExecutor(self.ctx).execute(task, storage, scalar_env)
            result.mode = "cpu-mt->cpu-seq"
            return result
        tl.schedule(LANE_CPU, run.sim_time_s, label=f"cpu-{threads}t")
        return ExecutionResult(
            arrays=storage.arrays, sim_time_s=tl.makespan, counts=run.counts,
            timeline=tl, mode="cpu-mt",
        )


class GpuOnlyExecutor:
    """GPU-alone: whole loop on the device.

    Transfers use the synchronous JNI path and pay the cyclic-
    communication factor (the naive round-trips the paper's optimizer
    removes).  Loops with true dependencies fall back to TLS-alone:
    speculation with pure GPU relaunch recovery, never borrowing the CPU.
    """

    name = "gpu"

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx

    def execute(
        self, task: Task, storage: ArrayStorage, scalar_env: dict[str, object]
    ) -> ExecutionResult:
        loop = task.loop
        if loop.fn is None:
            # not expressible as a kernel: the honest GPU-alone equivalent
            # is host execution (the paper has no such benchmark)
            result = SerialExecutor(self.ctx).execute(task, storage, scalar_env)
            result.mode = "gpu-fallback-serial"
            return result

        faults = self.ctx.faults
        if not faults.enabled:
            return self._execute_gpu(task, storage, scalar_env)
        written = loop.analysis.arrays_written()
        snapshot = snapshot_arrays(storage, written)
        try:
            return self._execute_gpu(task, storage, scalar_env)
        except RuntimeFaultError as err:
            if not is_recoverable_fault(err):
                raise
            restore_arrays(storage, snapshot)
            mem = self.ctx.device.memory
            for name in written:
                alloc = mem.allocations.get(name)
                if alloc is not None:
                    alloc.stale_fraction = 1.0
            faults.degraded(err.site, "gpu-only->serial", detail=str(err))
            result = SerialExecutor(self.ctx).execute(task, storage, scalar_env)
            result.mode = "gpu-only->serial"
            return result

    def _execute_gpu(
        self, task: Task, storage: ArrayStorage, scalar_env: dict[str, object]
    ) -> ExecutionResult:
        loop = task.loop
        indices = task.indices(scalar_env)
        tl = Timeline()
        # A hand-written GPU port keeps arrays resident for the whole
        # program (nothing else touches them), so only stale data moves.
        mem = self.ctx.device.memory
        b_in, b_out = mem.stage(loop.data_plan, storage.arrays, scalar_env)
        cyc = self.ctx.cost.cyclic_bytes  # GPU-alone moves extra bytes

        has_td = _has_true_dep(self.ctx, loop, indices, scalar_env, storage)
        profile = self.ctx.profiles.get(loop.id)
        coalescing = loop_coalescing(loop, profile)

        dma_in = tl.schedule(
            LANE_DMA,
            self.ctx.cost.transfer_time(cyc(b_in), asynchronous=False),
            label="h2d-sync",
        )
        tl.schedule(LANE_GPU, 0.0, after=[dma_in])

        if has_td:
            # TLS-alone: optimistic relaunches, no CPU handoff.  Small
            # sub-loops bound the wasted speculative work when the loop
            # violates densely (a high-TD loop commits ~1 iteration per
            # relaunch either way).
            round_trip = self.ctx.cost.transfer_time(
                cyc(b_in), asynchronous=False
            ) + self.ctx.cost.transfer_time(cyc(b_out), asynchronous=False)
            engine = GpuTlsEngine(
                self.ctx.device,
                self.ctx.cpu,
                TlsConfig(
                    warps_per_subloop=1,
                    lookahead_warps=self.ctx.config.tls.lookahead_warps,
                    relaunch_transfer_s=round_trip,
                ),
                obs=self.ctx.obs,
            )
            tls = engine.execute(
                loop.fn, indices, scalar_env, storage,
                profile=None,  # no profiling in the GPU-alone build
                coalescing=coalescing,
                elem_bytes=loop.elem_bytes,
                timeline=tl,
            )
            counts = tls.counts
        elif profile is not None and profile.has_false:
            # a hand-written GPU port privatizes the FD-carrying scratch
            from ..tls.privatize import run_privatized

            priv = run_privatized(
                self.ctx.device, loop.fn, indices, scalar_env, storage,
                coalescing=coalescing, elem_bytes=loop.elem_bytes,
                profile=profile,
            )
            tl.schedule(
                LANE_GPU, priv.kernel_time_s + priv.commit_time_s,
                label="pe(v)",
            )
            counts = priv.counts
        else:
            # dependence-free: plain parallel kernel, direct stores
            launch = self.ctx.device.launch(
                loop.fn, indices, scalar_env, storage,
                mode="direct",
                coalescing=coalescing,
                elem_bytes=loop.elem_bytes,
                block_size=loop.annotation.threads,
            )
            tl.schedule(LANE_GPU, launch.sim_time_s, label="kernel")
            counts = launch.counts

        out_bytes = mem.copy_back(cyc(b_out))
        tl.schedule(
            LANE_DMA,
            self.ctx.cost.transfer_time(out_bytes, asynchronous=False),
            not_before=tl.barrier([LANE_GPU]),
            label="d2h-sync",
        )
        return ExecutionResult(
            arrays=storage.arrays, sim_time_s=tl.makespan, counts=counts,
            timeline=tl, mode="gpu-only",
        )


class CooperativeExecutor:
    """Simple cooperative version: a fixed split, no prefetch pipeline."""

    name = "coop50"

    def __init__(self, ctx: ExecutionContext, split: float = 0.5):
        self.ctx = ctx
        self.split = split

    def execute(
        self, task: Task, storage: ArrayStorage, scalar_env: dict[str, object]
    ) -> ExecutionResult:
        from .sharing import TaskSharingScheduler

        saved_boundary = self.ctx.config.boundary_override
        saved_prefetch = self.ctx.config.async_prefetch
        self.ctx.config.boundary_override = self.split
        self.ctx.config.async_prefetch = False
        try:
            result = TaskSharingScheduler(self.ctx).execute(
                task, storage, scalar_env
            )
        finally:
            self.ctx.config.boundary_override = saved_boundary
            self.ctx.config.async_prefetch = saved_prefetch
        result.mode = f"coop{int(self.split * 100)}"
        return result
