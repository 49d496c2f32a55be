"""The task-sharing scheme (paper §V-A).

One loop's iteration space is split at the global boundary
``Cg*Fg / (Cg*Fg + Cc*Fc)``: the left part runs on the GPU in ascending
uniform chunks with data prefetched "in advance and asynchronously with
the kernel execution to avoid cyclic communication and to hide some
latency"; the right part runs on the CPU in descending order.  The
execution mode (A/B/C/D/D') decides what "runs on" means on each side.

Modes A and D' run on the device pool, and a single GPU is a pool of
one: the GPU part is weight-partitioned across the alive devices
(:func:`~repro.scheduler.sharding.partition_weighted`), each shard runs
the same chunked DMA/kernel pipeline on its device's ``gpu{k}``/
``dma{k}`` lanes (device 0 keeps ``gpu``/``dma``), and with one device
the partition is the whole GPU part, so the seed single-GPU schedule
falls out of the same code.  Which bytes move is decided by
:meth:`~repro.gpusim.memory.DeviceMemory.stage` and
:meth:`~repro.gpusim.memory.DeviceMemory.copy_back` on the device that
runs the work.

Device death: in a pool of two or more, a device whose launches exhaust
the retry budget is marked dead and its unexecuted chunks *drain* to
the survivors (launch faults fire before any lane executes, so a failed
shard leaves no partial writes), then to the CPU thread pool when every
device is dead.  In a pool of one the launch fault goes to the
degradation ladder instead: rollback, then ``A->cpu-mt``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..cpusim.threads import block_partition, descending
from ..errors import RuntimeFaultError, UnrecoverableFaultError
from ..faults.plane import SITE_GPU_LAUNCH
from ..faults.resilience import (
    is_recoverable_fault,
    restore_arrays,
    snapshot_arrays,
)
from ..ir.interpreter import N_COUNTERS, ArrayStorage, Counts
from ..obs.tracer import PHASE_SCHEDULE
from ..profiler.report import DependencyProfile
from ..runtime.clock import (
    LANE_CPU,
    LANE_DMA,
    LANE_GPU,
    Event,
    Timeline,
    dma_lane,
    gpu_lane,
)
from ..runtime.result import ExecutionResult
from ..tls.engine import GpuTlsEngine
from ..tls.privatize import run_privatized
from ..translate.translator import TranslatedLoop
from .boundary import split_at_boundary
from .context import ExecutionContext, loop_coalescing
from .modes import RUNG_CPU_MT, RUNG_CPU_SEQ, ExecMode, decide_mode, downgrade_ladder
from .sharding import partition_weighted, seeded_pick
from .task import Task

#: GPU chunks each device shard pipelines: the left part is "divided
#: into uniform chunks of moderate size ... executed on GPU in an
#: ascending order"
SHARING_CHUNKS = 4


class TaskSharingScheduler:
    """Executes one task cooperatively across the CPU-GPU border."""

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx

    # -- public API ----------------------------------------------------------

    def execute(
        self,
        task: Task,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
        timeline: Optional[Timeline] = None,
    ) -> ExecutionResult:
        loop = task.loop
        indices = task.indices(scalar_env)
        tl = timeline if timeline is not None else Timeline()
        faults = self.ctx.faults
        mark = faults.recorder.mark()
        obs = self.ctx.obs

        with obs.tracer.span(
            f"share:{loop.id}", PHASE_SCHEDULE,
            loop=loop.id, iterations=len(indices),
        ) as sp:
            profile, mode = self._plan(loop, indices, scalar_env, storage, tl)
            coalescing = loop_coalescing(loop, profile)

            result, label = self._run_ladder(
                mode, loop, indices, scalar_env, storage, tl, profile,
                coalescing,
            )
            sp.annotate(mode=label)
            sp.set_sim(0.0, result.sim_time_s)
        m = obs.metrics
        m.counter("scheduler.sharing.dispatches").inc()
        m.gauge("scheduler.boundary").set(self.ctx.boundary())
        m.counter("scheduler.gpu_iterations").inc(
            result.detail.get("gpu_iterations", 0)
        )
        m.counter("scheduler.cpu_iterations").inc(
            result.detail.get("cpu_iterations", 0)
        )
        result.mode = label
        result.detail["profile"] = profile
        if faults.enabled:
            result.resilience = faults.recorder.report(since=mark)
        return result

    def _plan(
        self,
        loop: TranslatedLoop,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
    ) -> tuple[Optional[DependencyProfile], ExecMode]:
        """Profile (when needed) and pick the execution mode.

        A profiling run killed by injected faults degrades straight to
        mode C: with no dependency information the only safe plan is
        sequential CPU execution.  (Profiling runs against scratch
        memory, so a dead profile leaves no state to roll back.)
        """
        profile: Optional[DependencyProfile] = None
        if not loop.is_static_doall and not loop.cpu_only:
            try:
                profile = self.ctx.ensure_profile(
                    loop, indices, scalar_env, storage
                )
            except RuntimeFaultError as err:
                if not is_recoverable_fault(err):
                    raise
                self.ctx.faults.degraded(
                    err.site, "profile->cpu-seq",
                    detail="profiling failed; falling back to sequential",
                )
                return None, ExecMode.C
            tl.schedule(LANE_GPU, profile.profile_time_s, label="profiling")
        return profile, decide_mode(loop, profile, self.ctx.config.dd_threshold)

    # -- degradation ladder ------------------------------------------------

    def _run_ladder(
        self,
        mode: ExecMode,
        loop: TranslatedLoop,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        profile: Optional[DependencyProfile],
        coalescing: float,
    ) -> tuple[ExecutionResult, str]:
        """Run the mode, degrading rung-by-rung on recoverable faults.

        Each failed rung's partial writes are rolled back from a
        pre-rung snapshot (device copies of rolled-back arrays become
        fully stale), so every rung starts from clean state.  Simulated
        time already scheduled by the failed attempt stays on the
        timeline — failure costs time, never correctness.  Returns the
        result plus its mode label (``"A"`` natively, ``"A->cpu-mt"``
        degraded); raises :class:`UnrecoverableFaultError` when even the
        sequential last resort keeps dying.
        """
        faults = self.ctx.faults
        rungs = downgrade_ladder(mode)
        if not faults.enabled:
            # fault-free fast path: no snapshots, no ladder
            result = self._run_rung(
                rungs[0], loop, indices, scalar_env, storage, tl,
                profile, coalescing,
            )
            return result, mode.value
        written = loop.analysis.arrays_written()
        last_err: Optional[RuntimeFaultError] = None
        for pos, rung in enumerate(rungs):
            snapshot = snapshot_arrays(storage, written)
            try:
                result = self._run_rung(
                    rung, loop, indices, scalar_env, storage, tl,
                    profile, coalescing,
                )
                if pos > 0 and rung == RUNG_CPU_SEQ:
                    # a degraded sequential run rewrote the outputs on
                    # the host; any device copy is now fully stale
                    self.ctx.pool.mark_stale(written, 1.0)
                label = mode.value if pos == 0 else f"{mode.value}->{rung}"
                return result, label
            except RuntimeFaultError as err:
                if not is_recoverable_fault(err):
                    raise
                restore_arrays(storage, snapshot)
                self.ctx.pool.mark_stale(written, 1.0)
                faults.recorder.clock_s = tl.makespan
                last_err = err
                nxt = rungs[pos + 1] if pos + 1 < len(rungs) else None
                if nxt is not None:
                    faults.degraded(err.site, f"{rung}->{nxt}", detail=str(err))
        raise UnrecoverableFaultError(
            f"degradation ladder exhausted for loop {loop.id!r}: {last_err}",
            site=last_err.site if last_err else "",
            at_s=faults.recorder.clock_s,
        )

    def _run_rung(
        self,
        rung: str,
        loop: TranslatedLoop,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        profile: Optional[DependencyProfile],
        coalescing: float,
    ) -> ExecutionResult:
        if rung == RUNG_CPU_SEQ:
            return self._mode_c(loop, indices, scalar_env, storage, tl)
        if rung == RUNG_CPU_MT:
            return self._mode_cpu_mt(
                loop, indices, scalar_env, storage, tl, profile
            )
        mode = ExecMode(rung)
        if mode is ExecMode.B:
            return self._mode_b(
                loop, indices, scalar_env, storage, tl, profile, coalescing
            )
        if mode is ExecMode.D:
            return self._mode_d(
                loop, indices, scalar_env, storage, tl, coalescing
            )
        # A and D' both run fully parallel on both sides; the profile
        # (for D') or static analysis (for A) guarantees direct
        # stores cannot conflict
        return self._mode_a(
            loop, indices, scalar_env, storage, tl, coalescing
        )

    # -- mode implementations ----------------------------------------------

    def _mode_a(
        self,
        loop: TranslatedLoop,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        coalescing: float,
    ) -> ExecutionResult:
        """DOALL (A) and profiled-clean (D'): PE on the GPU pool + MT on CPU.

        The boundary is the pool-generalized ``sum(Ci*Fi) / (sum(Ci*Fi)
        + Cc*Fc)``; the GPU part is weight-partitioned across the alive
        devices, each running :meth:`_run_shard`.
        """
        ctx = self.ctx
        pool = ctx.pool
        gpu_idx, cpu_idx = split_at_boundary(indices, ctx.boundary())
        n_total = max(1, len(indices))
        n_gpu = len(gpu_idx)
        frac_gpu = n_gpu / n_total
        written = loop.analysis.arrays_written()

        raw = [0] * N_COUNTERS  # hot loop: accumulate raw, fold at the end
        per_device: dict[int, int] = {}  # iterations executed per device id
        pending: Sequence[int] = []  # what dead devices left undone
        alive = pool.alive_ids()
        if alive:
            shards = partition_weighted(gpu_idx, [pool.weight(k) for k in alive])
        else:
            # the whole pool died in an earlier dispatch of this run: the
            # GPU part goes straight to the CPU drain below
            shards, pending = [], gpu_idx
        for k, shard in zip(alive, shards):
            if shard:
                # two shards' tails need not adjoin, so they join in a list
                pending = [*pending, *self._run_shard(
                    k, shard, n_total, loop, scalar_env, storage, tl,
                    coalescing, raw, per_device,
                )]

        # drain dead devices' shards to survivors (seeded tie-break between
        # devices whose compute lanes free up at the same instant)
        drained = rounds = 0
        while pending and pool.alive_ids():
            survivors = pool.alive_ids()
            free = {k: tl.barrier([gpu_lane(k)]) for k in survivors}
            best = min(free.values())
            ties = [k for k in survivors if free[k] == best]
            k = ties[
                seeded_pick(ctx.scheduler_seed, ("drain", loop.id, rounds),
                            len(ties))
            ]
            batch = pending
            pending = self._run_shard(
                k, batch, n_total, loop, scalar_env, storage, tl,
                coalescing, raw, per_device, tag=f"-drain{rounds}",
            )
            drained += len(batch) - len(pending)
            rounds += 1

        if pending:
            # every device is dead: the leftover runs on the CPU thread pool
            # (the rung the degradation ladder would use)
            ctx.faults.degraded(
                SITE_GPU_LAUNCH,
                "pool->cpu-mt",
                detail=f"all devices dead; {len(pending)} iterations to CPU",
            )
            run = ctx.cpu.run_parallel(
                loop.fn,
                storage,
                scalar_env,
                pending,
                threads=ctx.config.cpu_threads,
                elem_bytes=loop.elem_bytes,
            )
            run.counts.add_to_raw(raw)
            tl.schedule(LANE_CPU, run.sim_time_s, label="cpu-mt-drain")
            pool.mark_stale(written, len(pending) / n_total)

        # CPU side: the right part, multithreaded, walked descending
        if cpu_idx:
            cpu_run = ctx.cpu.run_parallel(
                loop.fn,
                storage,
                scalar_env,
                descending(cpu_idx),
                threads=ctx.config.cpu_threads,
                elem_bytes=loop.elem_bytes,
            )
            cpu_run.counts.add_to_raw(raw)
            tl.schedule(LANE_CPU, cpu_run.sim_time_s, label="cpu-mt")
            pool.mark_stale(written, 1.0 - frac_gpu)

        if pool.size > 1:
            m = ctx.obs.metrics
            for k, n_iter in per_device.items():
                m.counter(f"scheduler.shard.iterations.d{k}").inc(n_iter)
            if drained:
                m.counter("scheduler.shard.drained").inc(drained)
            if rounds:
                # drain rounds run under fault recovery; the insight
                # plane's bucket attribution keys off the "-drainN" event
                # labels and this counter reconciles the two views
                m.counter("scheduler.shard.drain_batches").inc(rounds)
            if pending:
                m.counter("scheduler.shard.drained_to_cpu").inc(len(pending))

        return ExecutionResult(
            arrays=storage.arrays,
            sim_time_s=tl.makespan,
            counts=Counts.from_raw(raw),
            timeline=tl,
            detail={
                "gpu_iterations": n_gpu - len(pending),
                "cpu_iterations": len(cpu_idx) + len(pending),
            },
        )

    def _run_shard(
        self,
        device_id: int,
        shard: Sequence[int],
        n_total: int,
        loop: TranslatedLoop,
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        coalescing: float,
        raw: list[int],
        per_device: dict[int, int],
        tag: str = "",
    ) -> Sequence[int]:
        """Run one shard's chunked pipeline on one device; returns the
        indices left unexecuted, a slice of the shard.

        With prefetch on, the DMA of chunk k+1 overlaps kernel k; with
        it off, one synchronous copy-in precedes every kernel.  An empty
        return means the whole shard ran.  A non-empty one means the
        device died mid-shard: it is already marked dead and the
        degradation recorded, and because launch faults fire before any
        lane executes the returned indices carry no partial writes.
        """
        ctx = self.ctx
        pool = ctx.pool
        dev = pool.device(device_id)
        cost = pool.cost_of(device_id)
        asynchronous = ctx.config.async_prefetch
        glane, dlane = gpu_lane(device_id), dma_lane(device_id)

        b_in, b_out = dev.memory.stage(loop.data_plan, storage.arrays, scalar_env)
        frac = len(shard) / n_total
        nchunks = max(1, min(SHARING_CHUNKS, len(shard)))
        chunks = [c for c in block_partition(shard, nchunks) if c]
        if asynchronous:
            per_chunk_in = (b_in * frac) / max(1, len(chunks))
        else:
            sync_in = tl.schedule(
                dlane,
                cost.transfer_time(b_in * frac, asynchronous=False),
                label=f"h2d-sync{tag}",
            )

        executed = 0
        leftover = shard[:0]
        last_kernel: Optional[Event] = None
        for k, chunk in enumerate(chunks):
            if asynchronous:
                dma = tl.schedule(
                    dlane,
                    cost.transfer_time(per_chunk_in, asynchronous=True),
                    label=f"h2d#{k}{tag}",
                )
            else:
                dma = sync_in
            try:
                launch = dev.launch(
                    loop.fn,
                    chunk,
                    scalar_env,
                    storage,
                    mode="direct",
                    coalescing=coalescing,
                    elem_bytes=loop.elem_bytes,
                    block_size=loop.annotation.threads,
                )
            except RuntimeFaultError as err:
                if pool.size == 1 or not is_recoverable_fault(err):
                    # a pool of one has nowhere to drain: the ladder
                    # rolls back and degrades to the CPU
                    raise
                pool.mark_dead(device_id)
                ctx.faults.recorder.clock_s = tl.makespan
                leftover = shard[executed:]
                ctx.faults.degraded(
                    err.site,
                    f"gpu{device_id}->drain",
                    detail=(
                        f"device {device_id} died with {len(leftover)} "
                        f"iterations pending: {err}"
                    ),
                )
                frac = executed / n_total
                break
            launch.counts.add_to_raw(raw)
            executed += len(chunk)
            last_kernel = tl.schedule(
                glane, launch.sim_time_s, after=[dma],
                label=f"kernel#{k}{tag}",
            )
        per_device[device_id] = per_device.get(device_id, 0) + executed

        # copy the executed fraction's outputs back after the last kernel
        if last_kernel is not None and b_out * frac > 0:
            out_bytes = dev.memory.copy_back(b_out * frac)
            tl.schedule(
                dlane,
                cost.transfer_time(out_bytes, asynchronous=asynchronous),
                after=[last_kernel],
                label=f"{'d2h' if asynchronous else 'd2h-sync'}{tag}",
            )
        return leftover

    def _mode_b(
        self,
        loop: TranslatedLoop,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        profile: Optional[DependencyProfile],
        coalescing: float,
    ) -> ExecutionResult:
        """Low TD density: GPU-TLS across the loop, CPU handles violations."""
        mem = self.ctx.device.memory
        b_in, b_out = mem.stage(loop.data_plan, storage.arrays, scalar_env)
        dma_in = tl.schedule(
            LANE_DMA,
            self.ctx.cost.transfer_time(b_in, asynchronous=True),
            label="h2d",
        )
        tl.schedule(LANE_GPU, 0.0, after=[dma_in])

        engine = GpuTlsEngine(
            self.ctx.device, self.ctx.cpu, self.ctx.config.tls,
            obs=self.ctx.obs,
        )
        tls = engine.execute(
            loop.fn,
            indices,
            scalar_env,
            storage,
            profile=profile,
            coalescing=coalescing,
            elem_bytes=loop.elem_bytes,
            timeline=tl,
        )
        out_bytes = mem.copy_back(b_out)
        tl.schedule(
            LANE_DMA,
            self.ctx.cost.transfer_time(out_bytes, asynchronous=True),
            not_before=tl.barrier([LANE_GPU, LANE_CPU]),
            label="d2h",
        )
        return ExecutionResult(
            arrays=storage.arrays,
            sim_time_s=tl.makespan,
            counts=tls.counts,
            timeline=tl,
            detail={"tls": tls.stats},
        )

    def _mode_cpu_mt(
        self,
        loop: TranslatedLoop,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        profile: Optional[DependencyProfile],
    ) -> ExecutionResult:
        """Degraded rung below A/D': every iteration on the CPU pool.

        Only reachable for loops with no true dependency (statically
        DOALL or profiled clean), so a thread-pool run is always
        correct; vectorization is withheld if the profile saw false
        dependencies, to keep write ordering deterministic.
        """
        run = self.ctx.cpu.run_parallel(
            loop.fn,
            storage,
            scalar_env,
            indices,
            threads=self.ctx.config.cpu_threads,
            elem_bytes=loop.elem_bytes,
            allow_vectorized=not (profile is not None and profile.has_false),
        )
        tl.schedule(LANE_CPU, run.sim_time_s, label="cpu-mt-degraded")
        self.ctx.pool.mark_stale(loop.analysis.arrays_written(), 1.0)
        return ExecutionResult(
            arrays=storage.arrays,
            sim_time_s=tl.makespan,
            counts=run.counts,
            timeline=tl,
        )

    def _mode_c(
        self,
        loop: TranslatedLoop,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
    ) -> ExecutionResult:
        """High TD density (or unloweable loop): CPU sequential."""
        if loop.fn is not None:
            run = self.ctx.cpu.run_serial(
                loop.fn, storage, scalar_env, indices,
                elem_bytes=loop.elem_bytes,
            )
            counts, time_s = run.counts, run.sim_time_s
        else:
            from ..runtime.hosteval import run_loop_sequential_host

            counts, time_s = run_loop_sequential_host(
                loop, storage, scalar_env, self.ctx.cost
            )
        tl.schedule(LANE_CPU, time_s, label="cpu-seq")
        return ExecutionResult(
            arrays=storage.arrays,
            sim_time_s=tl.makespan,
            counts=counts,
            timeline=tl,
        )

    def _mode_d(
        self,
        loop: TranslatedLoop,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        tl: Timeline,
        coalescing: float,
    ) -> ExecutionResult:
        """FD only: GPU privatized PE(V); CPU part sequential.

        The GPU's buffers commit before the CPU part executes so the
        privatized variables end with the sequentially-last values.
        """
        gpu_idx, cpu_idx = split_at_boundary(indices, self.ctx.boundary())
        mem = self.ctx.device.memory
        b_in, b_out = mem.stage(loop.data_plan, storage.arrays, scalar_env)
        frac_gpu = len(gpu_idx) / max(1, len(indices))

        dma_in = tl.schedule(
            LANE_DMA,
            self.ctx.cost.transfer_time(b_in * frac_gpu, asynchronous=True),
            label="h2d",
        )
        profile = self.ctx.profiles.get(loop.id)
        priv = run_privatized(
            self.ctx.device,
            loop.fn,
            gpu_idx,
            scalar_env,
            storage,
            coalescing=coalescing,
            elem_bytes=loop.elem_bytes,
            profile=profile,
        )
        kernel_evt = tl.schedule(
            LANE_GPU, priv.kernel_time_s, after=[dma_in], label="pe(v)"
        )
        tl.schedule(LANE_GPU, priv.commit_time_s, label="commit")
        out_bytes = mem.copy_back(b_out * frac_gpu)
        tl.schedule(
            LANE_DMA,
            self.ctx.cost.transfer_time(out_bytes, asynchronous=True),
            after=[kernel_evt],
            label="d2h",
        )

        total = priv.counts
        if cpu_idx:
            # sequential (ascending) so privatized cells end sequentially-last
            cpu_run = self.ctx.cpu.run_serial(
                loop.fn, storage, scalar_env, cpu_idx,
                elem_bytes=loop.elem_bytes,
            )
            total = total + cpu_run.counts
            tl.schedule(LANE_CPU, cpu_run.sim_time_s, label="cpu-seq")
            self.ctx.pool.mark_stale(
                loop.analysis.arrays_written(), 1.0 - frac_gpu
            )

        return ExecutionResult(
            arrays=storage.arrays,
            sim_time_s=tl.makespan,
            counts=total,
            timeline=tl,
            detail={
                "gpu_iterations": len(gpu_idx),
                "cpu_iterations": len(cpu_idx),
                "privatized_cells": priv.cells_committed,
            },
        )
