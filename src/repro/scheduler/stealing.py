"""The task-stealing scheme (paper §V-B, Algorithm 1).

Inter-loop dependencies compose the PDG; the scheduler repeatedly pulls a
batch of data-independent tasks (topological sort), distributes them to
the CPU and GPU queues by the rule table, and lets the worker that drains
its queue first steal preferential tasks from the other queue.  A barrier
closes each batch ("wait until all tasks in taskSet are done").

Distribution rules: loops with high TD density and loops without TD after
profiling are *obligated* to CPU and GPU respectively; loops with
moderate TD density are suited to CPU; loops determined DOALL at compile
time are suited to GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import RuntimeFaultError, SchedulerError, UnrecoverableFaultError
from ..faults.resilience import (
    is_recoverable_fault,
    restore_arrays,
    snapshot_arrays,
)
from ..ir.interpreter import ArrayStorage
from ..obs.tracer import PHASE_SCHEDULE
from ..pdg.graph import ProgramDependenceGraph
from ..pdg.toposort import JobPool
from ..runtime.clock import LANE_CPU, Timeline, gpu_lane
from ..runtime.result import ExecutionResult
from ..tls.engine import GpuTlsEngine
from .context import ExecutionContext, loop_coalescing
from .queues import WorkerQueue
from .sharding import seeded_pick
from .task import Task

#: Modelled per-batch synchronization overhead (barrier + dispatch).
BATCH_SYNC_OVERHEAD_S = 20e-6


def _task_sections(
    task: Task, storage: ArrayStorage, scalar_env: dict[str, object]
) -> dict[str, dict[str, list[tuple[int, int]]]]:
    """Accessed flat-address sections per array: {'R'|'W': {array: [(lo, hi)]}}.

    Affine accesses are evaluated at the task's index-range endpoints
    (linear forms are monotone in the index); anything unresolvable
    covers the whole array.
    """
    out: dict[str, dict[str, list[tuple[int, int]]]] = {"R": {}, "W": {}}
    indices = task.indices(scalar_env)
    if not indices:
        return out
    i_lo, i_hi = min(indices), max(indices)
    for acc in task.loop.analysis.accesses:
        shape = storage.shapes.get(acc.array)
        if shape is None:
            continue
        size = 1
        for d in shape:
            size *= d
        interval = _access_interval(acc, i_lo, i_hi, shape, scalar_env)
        if interval is None:
            interval = (0, size - 1)
        out[acc.kind].setdefault(acc.array, []).append(interval)
    return out


def _access_interval(acc, i_lo, i_hi, shape, env):
    """Flat-address interval of one affine access, or None."""
    if not acc.affine:
        return None
    dims = []
    for form in acc.forms:
        base = form.const
        for name, k in form.syms:
            value = env.get(name)
            if value is None:
                return None
            base += k * int(value)
        lo = form.coeff * i_lo + base
        hi = form.coeff * i_hi + base
        dims.append((min(lo, hi), max(lo, hi)))
    if len(dims) == 1:
        return dims[0]
    ncols = shape[1]
    return (dims[0][0] * ncols + dims[1][0], dims[0][1] * ncols + dims[1][1])


def _section_conflicts(a_sec, b_sec) -> list[str]:
    """Dependence kinds implied by intersecting sections of two tasks."""
    kinds = []
    if _intersects(a_sec["W"], b_sec["R"]):
        kinds.append("flow")
    if _intersects(a_sec["W"], b_sec["W"]):
        kinds.append("output")
    if _intersects(a_sec["R"], b_sec["W"]):
        kinds.append("anti")
    return kinds


def _intersects(a_map, b_map) -> bool:
    for array, a_ivs in a_map.items():
        b_ivs = b_map.get(array)
        if not b_ivs:
            continue
        for alo, ahi in a_ivs:
            for blo, bhi in b_ivs:
                if alo <= bhi and blo <= ahi:
                    return True
    return False


@dataclass
class Placement:
    """Where a task ran and for how long (for tests and Figure 5a)."""

    task_id: str
    worker: str  # 'cpu' | 'gpu'
    start_s: float
    duration_s: float
    stolen: bool = False
    #: pool device the task was placed on (meaningful when worker='gpu')
    device: int = 0

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s


@dataclass
class StealingStats:
    placements: list[Placement] = field(default_factory=list)
    steals: int = 0
    batches: int = 0
    #: simulated busy time of stolen tasks (steal-efficiency reports)
    steal_time_s: float = 0.0

    def share(self, worker: str) -> float:
        """Fraction of tasks executed by a worker."""
        if not self.placements:
            return 0.0
        mine = sum(1 for p in self.placements if p.worker == worker)
        return mine / len(self.placements)


class TaskStealingScheduler:
    """Executes a set of loop tasks with per-device queues and stealing."""

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx
        #: array sections per task id, filled by :meth:`build_task_pdg`
        self._sections: dict[str, dict] = {}

    # -- PDG over tasks ---------------------------------------------------

    def build_task_pdg(
        self,
        tasks: list[Task],
        storage: ArrayStorage,
        scalar_env: dict[str, object],
    ) -> ProgramDependenceGraph:
        """Dependence graph at task granularity with array sections.

        Two tasks conflict only when their accessed array *sections*
        intersect; sections come from the affine subscript forms
        evaluated over each task's index range.  This is what lets the
        paper's source-level sub-loop splitting (BICG's 2x4 sub-loops,
        Crypt's 16) yield genuinely independent tasks: the sub-loops
        touch the same arrays but disjoint element ranges.  Irresolvable
        accesses conservatively cover the whole array.
        """
        pdg = ProgramDependenceGraph()
        sections: dict[str, dict[str, dict[str, list[tuple[int, int]]]]] = {}
        for task in tasks:
            analysis = task.loop.analysis
            pdg.add_task(
                task.id,
                analysis.arrays_read(),
                analysis.arrays_written(),
                label=task.id,
            )
            sections[task.id] = _task_sections(task, storage, scalar_env)

        for i, a in enumerate(tasks):
            for b in tasks[i + 1 :]:
                kinds = _section_conflicts(sections[a.id], sections[b.id])
                if kinds:
                    pdg.add_edge(a.id, b.id, "+".join(kinds))
        pdg.check_acyclic()
        # kept for the cross-device steal guard: a steal must not place a
        # task whose sections conflict with a concurrently running task
        self._sections = sections
        return pdg

    # -- distribution rules -----------------------------------------------

    def _dd_class(
        self, task: Task, storage: ArrayStorage, scalar_env
    ) -> str:
        """'doall' | 'zero' | 'low' | 'high' for the rule table."""
        loop = task.loop
        if loop.cpu_only:
            return "high"
        if loop.is_static_doall:
            return "doall"
        try:
            profile = self.ctx.ensure_profile(
                loop, task.indices(scalar_env), scalar_env, storage
            )
        except RuntimeFaultError as err:
            if not is_recoverable_fault(err):
                raise
            # no dependency information: classify conservatively so the
            # task is pinned to the (always-correct) sequential CPU path
            self.ctx.faults.degraded(
                err.site, "profile->cpu-obligatory",
                detail=f"task {task.id}: profiling failed",
            )
            return "high"
        return profile.density_class(self.ctx.config.dd_threshold)

    @staticmethod
    def _gpu_obligatory(dd: str) -> bool:
        return dd == "zero"

    @staticmethod
    def _cpu_obligatory(dd: str) -> bool:
        return dd == "high"

    # -- pool workers ------------------------------------------------------
    # Worker names: 'gpu' is pool device 0 (the seed single-GPU worker),
    # 'gpu1'..'gpuN' the extra pool devices, 'cpu' the thread pool.

    @staticmethod
    def _worker_name(device_id: int) -> str:
        return "gpu" if device_id == 0 else f"gpu{device_id}"

    @staticmethod
    def _worker_device(worker: str) -> Optional[int]:
        if worker == "cpu":
            return None
        return 0 if worker == "gpu" else int(worker[3:])

    @staticmethod
    def _rank(worker: str) -> int:
        """Tie order on equal clocks: gpu0 < gpu1 < ... < cpu (reproduces
        the seed rule 'gpu wins ties' at pool size 1)."""
        if worker == "cpu":
            return 1 << 30
        return 0 if worker == "gpu" else int(worker[3:])

    def _may_run(self, worker: str, dd: str) -> bool:
        """Placement legality: TLS ('low') sub-loops stay on device 0 or
        the CPU; the CPU may run anything."""
        dev = self._worker_device(worker)
        if dev is None:
            return True
        return dd != "low" or dev == 0

    def _steal_safe(
        self,
        task: Task,
        worker: str,
        times: dict[str, float],
        placed: list[Placement],
    ) -> bool:
        """A steal may not place a task whose array sections conflict
        with a task still running on another worker.

        Batches are PDG antichains (conflicting tasks never share a
        batch), so this guard should never fire — it is the enforced
        form of that invariant, and the property suite checks it.
        """
        now = times[worker]
        mine = self._sections.get(task.id)
        if mine is None:
            return True
        for p in placed:
            if p.end_s <= now:
                continue
            p_name = (
                "cpu" if p.worker == "cpu" else self._worker_name(p.device)
            )
            if p_name == worker:
                continue
            other = self._sections.get(p.task_id)
            if other is not None and _section_conflicts(mine, other):
                return False
        return True

    # -- the scheduling loop ------------------------------------------------

    def execute(
        self,
        tasks: list[Task],
        storage: ArrayStorage,
        scalar_env: dict[str, object],
    ) -> ExecutionResult:
        if not tasks:
            raise SchedulerError("empty task set")
        mark = self.ctx.faults.recorder.mark()
        obs = self.ctx.obs
        sp = obs.tracer.span(
            "steal", PHASE_SCHEDULE, tasks=len(tasks),
        )
        pdg = self.build_task_pdg(tasks, storage, scalar_env)
        pool = JobPool(pdg)
        by_id = {t.id: t for t in tasks}
        stats = StealingStats()
        tl = Timeline()
        dpool = self.ctx.pool

        times: dict[str, float] = {"cpu": 0.0}
        for k in dpool.alive_ids():
            times[self._worker_name(k)] = 0.0
        from ..ir.interpreter import N_COUNTERS, Counts

        raw = [0] * N_COUNTERS  # hot loop: accumulate raw, fold at the end

        while pool:
            batch_ids = pool.get_tasks()
            stats.batches += 1
            gpu_workers = [
                self._worker_name(k) for k in dpool.alive_ids()
            ]
            queues = {w: WorkerQueue(w) for w in gpu_workers + ["cpu"]}
            dd_of: dict[str, str] = {}
            for tid in batch_ids:
                task = by_id[tid]
                dd = self._dd_class(task, storage, scalar_env)
                dd_of[tid] = dd
                if self._cpu_obligatory(dd) or dd == "low" or not gpu_workers:
                    queues["cpu"].push(task)
                else:  # 'zero' obligatory GPU, 'doall' suited to GPU
                    w = self._pick_gpu_queue(
                        queues, gpu_workers, stats.batches, tid
                    )
                    queues[w].push(task)

            # Algorithm 1 lines 7-10: prime an empty queue by stealing
            self._prime_empty_queues(queues, gpu_workers, dd_of)

            # run the batch with dynamic stealing
            placed: list[Placement] = []
            while any(queues.values()):
                # a device killed mid-batch drops out; its queue rehomes
                gpu_workers = self._drop_dead_workers(
                    queues, gpu_workers, dd_of
                )
                order = sorted(
                    ["cpu"] + gpu_workers,
                    key=lambda w: (times[w], self._rank(w)),
                )
                task, stolen, worker = None, False, ""
                for w in order:
                    task, stolen = self._next_task(
                        w, queues, gpu_workers, dd_of, times, placed
                    )
                    if task is not None:
                        worker = w
                        break
                if task is None:
                    raise SchedulerError("no runnable task in batch")
                start = times[worker]
                duration, counts = self._run_on(
                    worker, task, storage, scalar_env, dd_of[task.id]
                )
                counts.add_to_raw(raw)
                times[worker] = start + duration
                if stolen:
                    stats.steals += 1
                    stats.steal_time_s += duration
                dev = self._worker_device(worker)
                placement = Placement(
                    task.id,
                    "cpu" if dev is None else "gpu",
                    start,
                    duration,
                    stolen,
                    device=dev if dev is not None else 0,
                )
                placed.append(placement)
                stats.placements.append(placement)
                tl.schedule(
                    LANE_CPU if dev is None else gpu_lane(dev),
                    duration,
                    not_before=start,
                    label=task.id + ("*" if stolen else ""),
                )

            # batch barrier
            barrier = max(times.values()) + BATCH_SYNC_OVERHEAD_S
            times = {w: barrier for w in times}
            pool.mark_done(batch_ids)

        makespan = max(times.values())
        sp.annotate(
            batches=stats.batches,
            steals=stats.steals,
            steal_time_s=stats.steal_time_s,
        )
        sp.set_sim(0.0, makespan)
        sp.close()
        m = obs.metrics
        m.counter("scheduler.stealing.dispatches").inc()
        m.counter("scheduler.stealing.batches").inc(stats.batches)
        m.counter("scheduler.stealing.steals").inc(stats.steals)
        m.counter("scheduler.stealing.tasks").inc(len(stats.placements))
        m.counter("scheduler.stealing.steal_time_s").inc(stats.steal_time_s)
        return ExecutionResult(
            arrays=storage.arrays,
            sim_time_s=makespan,
            counts=Counts.from_raw(raw),
            mode="stealing",
            timeline=tl,
            detail={"stats": stats},
            resilience=(
                self.ctx.faults.recorder.report(since=mark)
                if self.ctx.faults.enabled
                else None
            ),
        )

    def _pick_gpu_queue(
        self,
        queues: dict[str, WorkerQueue],
        gpu_workers: list[str],
        batch_no: int,
        task_id: str,
    ) -> str:
        """Least-loaded device queue; equal-length ties break through the
        scheduler seed so placements replay under ``--fault-seed``."""
        shortest = min(len(queues[w]) for w in gpu_workers)
        ties = [w for w in gpu_workers if len(queues[w]) == shortest]
        if len(ties) == 1:
            return ties[0]
        return ties[
            seeded_pick(
                self.ctx.scheduler_seed, ("dist", batch_no, task_id),
                len(ties),
            )
        ]

    def _prime_empty_queues(
        self,
        queues: dict[str, WorkerQueue],
        gpu_workers: list[str],
        dd_of: dict[str, str],
    ) -> None:
        if gpu_workers and not any(queues[w] for w in gpu_workers):
            # prime the first device's queue (device 0 when alive, which
            # is the only device that may take a TLS task)
            w0 = gpu_workers[0]
            task = queues["cpu"].steal_only_if(
                lambda t: not self._cpu_obligatory(dd_of[t.id])
                and self._may_run(w0, dd_of[t.id])
            )
            if task is not None:
                queues[w0].push(task)
        if not queues["cpu"] and any(queues[w] for w in gpu_workers):
            # the CPU can run anything; prefer tasks not pinned to the GPU
            victim = max(gpu_workers, key=lambda w: len(queues[w]))
            task = queues[victim].steal(
                lambda t: not self._gpu_obligatory(dd_of[t.id])
            )
            if task is not None:
                queues["cpu"].push(task)

    def _next_task(
        self,
        worker: str,
        queues: dict[str, WorkerQueue],
        gpu_workers: list[str],
        dd_of: dict[str, str],
        times: dict[str, float],
        placed: list[Placement],
    ) -> tuple[Optional[Task], bool]:
        own = queues[worker]
        task = own.pop()
        if task is not None:
            return task, False
        dev = self._worker_device(worker)
        if dev is None:
            # the CPU can run anything; prefer the tasks suited to it,
            # raiding the fullest device queue first
            victims = sorted(
                (w for w in gpu_workers if queues[w]),
                key=lambda w: (-len(queues[w]), self._rank(w)),
            )
            for w in victims:
                stolen = queues[w].steal_only_if(
                    lambda t: dd_of[t.id] in ("low", "high")
                    and self._steal_safe(t, worker, times, placed)
                )
                if stolen is not None:
                    return stolen, True
            for w in victims:
                stolen = queues[w].steal_only_if(
                    lambda t: self._steal_safe(t, worker, times, placed)
                )
                if stolen is not None:
                    return stolen, True
            return None, False
        # a GPU device steals parallel-friendly tasks only: from its
        # sibling devices first (cross-device steal), then from the CPU
        def allowed(t: Task) -> bool:
            return (
                not self._cpu_obligatory(dd_of[t.id])
                and self._may_run(worker, dd_of[t.id])
                and self._steal_safe(t, worker, times, placed)
            )

        victims = sorted(
            (w for w in gpu_workers if w != worker and queues[w]),
            key=lambda w: (-len(queues[w]), self._rank(w)),
        )
        for w in victims:
            stolen = queues[w].steal_only_if(allowed)
            if stolen is not None:
                return stolen, True
        stolen = queues["cpu"].steal_only_if(allowed)
        return stolen, stolen is not None

    def _drop_dead_workers(
        self,
        queues: dict[str, WorkerQueue],
        gpu_workers: list[str],
        dd_of: dict[str, str],
    ) -> list[str]:
        """Remove mid-batch casualties; rehome their queued tasks.

        A device the fault plane killed (see :meth:`_run_on`) stops being
        schedulable immediately; tasks still sitting in its queue move to
        the least-loaded surviving device (or the CPU when none remain,
        or for TLS tasks, which only device 0 may take).
        """
        alive = [
            w
            for w in gpu_workers
            if self.ctx.pool.is_alive(self._worker_device(w))
        ]
        if len(alive) == len(gpu_workers):
            return gpu_workers
        for w in gpu_workers:
            if w in alive:
                continue
            while True:
                task = queues[w].pop()
                if task is None:
                    break
                dd = dd_of[task.id]
                homes = [w2 for w2 in alive if self._may_run(w2, dd)]
                if homes:
                    tgt = min(
                        homes,
                        key=lambda w2: (len(queues[w2]), self._rank(w2)),
                    )
                    queues[tgt].push(task)
                else:
                    queues["cpu"].push(task)
        return alive

    # -- per-worker execution -----------------------------------------------

    def _run_on(
        self,
        worker: str,
        task: Task,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
        dd: str,
    ):
        """Run one task on a worker, degrading on injected faults.

        Fault-free this is a straight call through to the raw runner.
        Under injection, a recoverable fault rolls the task's written
        arrays back to a pre-task snapshot, marks their device copies
        invalid, and re-runs the task on the next-safer plan: GPU task ->
        CPU (with its native dd class), then CPU-sequential as the last
        resort.  When even sequential execution keeps dying the fault is
        unrecoverable.
        """
        faults = self.ctx.faults
        if not faults.enabled:
            return self._run_on_raw(worker, task, storage, scalar_env, dd)
        plans = [(worker, dd)]
        if worker != "cpu":
            plans.append(("cpu", dd))
        if plans[-1] != ("cpu", "high"):
            plans.append(("cpu", "high"))  # forces the serial CPU path
        written = task.loop.analysis.arrays_written()
        last_err: Optional[RuntimeFaultError] = None
        for pos, (w, d) in enumerate(plans):
            snapshot = snapshot_arrays(storage, written)
            try:
                return self._run_on_raw(w, task, storage, scalar_env, d)
            except RuntimeFaultError as err:
                if not is_recoverable_fault(err):
                    raise
                restore_arrays(storage, snapshot)
                for dev in self.ctx.pool.devices:
                    for name in written:
                        alloc = dev.memory.allocations.get(name)
                        if alloc is not None:
                            alloc.valid = False
                dev_id = self._worker_device(w)
                if dev_id is not None and self.ctx.pool.size > 1:
                    # a pool device that exhausted its retry budget is
                    # dead for the rest of the run; its queued tasks
                    # rehome at the next scheduling step
                    self.ctx.pool.mark_dead(dev_id)
                last_err = err
                if pos + 1 < len(plans):
                    nxt = plans[pos + 1]
                    faults.degraded(
                        err.site, f"{w}->{nxt[0]}",
                        detail=f"task {task.id}: {err}",
                    )
        raise UnrecoverableFaultError(
            f"task {task.id} failed on every worker: {last_err}",
            site=last_err.site if last_err else "",
            at_s=faults.recorder.clock_s,
        )

    def _run_on_raw(
        self,
        worker: str,
        task: Task,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
        dd: str,
    ):
        loop = task.loop
        indices = task.indices(scalar_env)
        frac = len(indices) / max(1, loop.analysis.info.trip_count(scalar_env))
        if worker == "cpu":
            if dd in ("high", "low") or loop.fn is None:
                if loop.fn is None:
                    from ..runtime.hosteval import run_loop_sequential_host

                    counts, time_s = run_loop_sequential_host(
                        loop, storage, scalar_env, self.ctx.cost
                    )
                    return time_s, counts
                run = self.ctx.cpu.run_serial(
                    loop.fn, storage, scalar_env, indices,
                    elem_bytes=loop.elem_bytes,
                )
            else:
                run = self.ctx.cpu.run_parallel(
                    loop.fn, storage, scalar_env, indices,
                    threads=self.ctx.config.cpu_threads,
                    elem_bytes=loop.elem_bytes,
                )
            # a CPU write invalidates every pool device's copy of the array
            for dev in self.ctx.pool.devices:
                for name in loop.analysis.arrays_written():
                    alloc = dev.memory.allocations.get(name)
                    if alloc is not None:
                        alloc.valid = False
            return run.sim_time_s, run.counts

        # GPU worker: the pool device behind this worker name
        dev_id = self._worker_device(worker)
        device = self.ctx.pool.device(dev_id)
        cost = self.ctx.pool.cost_of(dev_id)
        time_s = 0.0
        mem = device.memory
        for move in loop.data_plan.copyin:
            arr = storage.arrays[move.array]
            alloc = mem.allocations.get(move.array)
            if alloc is None or not alloc.valid:
                nbytes = move.nbytes(scalar_env, arr)
                # copyin's return already includes fault re-issues
                moved = mem.copyin(move.array, arr.shape, arr.dtype, nbytes)
                time_s += cost.transfer_time(moved, asynchronous=True)
        for move in loop.data_plan.create:
            arr = storage.arrays[move.array]
            if move.array not in mem.allocations:
                mem.alloc(move.array, arr.shape, arr.dtype)
        for move in loop.data_plan.copyout:
            arr = storage.arrays[move.array]
            if move.array not in mem.allocations:
                mem.alloc(move.array, arr.shape, arr.dtype)

        profile = self.ctx.profiles.get(loop.id)
        coalescing = loop_coalescing(loop, profile)

        if dd == "low":
            engine = GpuTlsEngine(
                self.ctx.device, self.ctx.cpu, self.ctx.config.tls,
                obs=self.ctx.obs,
            )
            tls = engine.execute(
                loop.fn, indices, scalar_env, storage,
                profile=profile, coalescing=coalescing,
                elem_bytes=loop.elem_bytes,
            )
            time_s += tls.sim_time_s
            counts = tls.counts
        elif profile is not None and profile.has_false:
            from ..tls.privatize import run_privatized

            priv = run_privatized(
                device, loop.fn, indices, scalar_env, storage,
                coalescing=coalescing, elem_bytes=loop.elem_bytes,
                profile=profile,
            )
            time_s += priv.sim_time_s
            counts = priv.counts
        else:
            launch = device.launch(
                loop.fn, indices, scalar_env, storage,
                mode="direct", coalescing=coalescing,
                elem_bytes=loop.elem_bytes,
            )
            time_s += launch.sim_time_s
            counts = launch.counts

        out_bytes = mem.copy_back(
            loop.data_plan.total_out_bytes(scalar_env, storage.arrays) * frac
        )
        time_s += cost.transfer_time(out_bytes, asynchronous=True)
        for move in loop.data_plan.copyout:
            mem.mark_written(move.array)
        return time_s, counts
