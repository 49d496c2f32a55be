"""Sharded scheduling across the multi-GPU device pool.

The sharing scheme's GPU side is one contiguous block of the iteration
space.  With a device pool that block is further *sharded*: partitioned
across the alive devices in proportion to their relative throughput
(``C_k * F_k``, the same convention as the paper's CPU/GPU boundary),
each shard running its own chunked DMA/kernel pipeline on the device's
private ``gpu{k}``/``dma{k}`` timeline lanes.

Sharding never changes functional results: DOALL / profiled-clean loops
(the only shardable modes, see :func:`repro.scheduler.modes.shardable`)
execute each index exactly once no matter which device runs it, so the
multi-device output is bit-identical to the single-device output.

Fault handling: a device whose launches exhaust the retry budget is
marked dead in the pool and its unexecuted shard *drains* to the
surviving devices (injected launch faults fire strictly before any lane
executes, so a failed shard leaves no partial writes and re-running it
elsewhere is safe).  When every device is dead the leftover drains to
the CPU thread pool — the same rung the single-device degradation
ladder would use.

Placement ties (equal-cost devices) break deterministically through a
seed derived from the installed fault schedule, so a chaos failure
replays bit-for-bit under the same ``--fault-seed``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

from ..cpusim.threads import block_partition, descending
from ..errors import RuntimeFaultError
from ..faults.plane import (
    SITE_GPU_LAUNCH,
    SITE_TRANSFER_D2H,
    SITE_TRANSFER_H2D,
)
from ..faults.resilience import is_recoverable_fault
from ..ir.interpreter import ArrayStorage, Counts, N_COUNTERS
from ..runtime.clock import LANE_CPU, Timeline, dma_lane, gpu_lane
from ..runtime.result import ExecutionResult
from ..translate.translator import TranslatedLoop
from .boundary import split_at_boundary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .sharing import TaskSharingScheduler


def seeded_pick(seed: int, key: object, n: int) -> int:
    """Deterministic index in ``[0, n)`` for tie-breaking.

    A pure function of ``(seed, key)`` through a digest (``hash()`` is
    randomized per process), so equal-cost placement decisions replay
    identically under the same scheduler seed.
    """
    if n <= 1:
        return 0
    text = repr((seed, key)).encode()
    digest = hashlib.sha256(text).digest()
    return int.from_bytes(digest[:8], "big") % n


def partition_weighted(
    items: Sequence[int], weights: Sequence[float]
) -> list[list[int]]:
    """Split ``items`` into ``len(weights)`` contiguous shards by weight.

    Shard boundaries are ``round(n * cum_weight / total)``; the rounded
    cumulative sums are monotone, so the shards are an *exact* partition
    of the input — no index lost, none duplicated — which the property
    suite locks down.  Zero total weight degenerates to everything in
    shard 0.
    """
    if not weights:
        raise ValueError("partition_weighted needs at least one weight")
    if any(w < 0 for w in weights):
        raise ValueError(f"negative shard weight in {weights!r}")
    n = len(items)
    total = sum(weights)
    if total <= 0:
        return [list(items)] + [[] for _ in weights[1:]]
    shards: list[list[int]] = []
    cum = 0.0
    lo = 0
    for w in weights:
        cum += w
        hi = int(round(n * cum / total))
        shards.append(list(items[lo:hi]))
        lo = hi
    return shards


@dataclass
class ShardOutcome:
    """Bookkeeping of one sharded dispatch (tests, reports, traces)."""

    #: iterations executed per device id
    per_device: dict[int, int] = field(default_factory=dict)
    #: iterations drained off dead devices and re-run elsewhere
    drained: int = 0
    #: iterations that ended on the CPU because every device died
    drained_to_cpu: int = 0
    #: devices marked dead during this dispatch
    dead_devices: list[int] = field(default_factory=list)


def register_device_data(
    sched: "TaskSharingScheduler",
    device,
    loop: TranslatedLoop,
    storage: ArrayStorage,
    scalar_env: dict[str, object],
) -> tuple[float, int]:
    """Per-device twin of the sharing scheduler's data registration.

    Allocates/refreshes the loop's operands in ``device``'s allocation
    table (each pool device tracks its own residency and stale
    fractions) and returns ``(in_bytes, out_bytes)`` for that device.
    """
    mem = device.memory
    faults = sched.ctx.faults
    b_in = 0.0
    for move in loop.data_plan.copyin:
        arr = storage.arrays[move.array]
        alloc = mem.allocations.get(move.array)
        if alloc is None:
            nbytes = move.nbytes(scalar_env, arr)
            b_in += mem.copyin(move.array, arr.shape, arr.dtype, nbytes)
            alloc = mem.allocations[move.array]
        else:
            nbytes = move.nbytes(scalar_env, arr)
            refreshed = faults.charge_transfer(
                SITE_TRANSFER_H2D,
                nbytes * alloc.stale_fraction,
                device.device_id,
            )
            b_in += refreshed
            if refreshed:
                m = sched.ctx.obs.metrics
                m.counter("transfer.h2d.bytes").inc(refreshed)
                m.counter("transfer.h2d.count").inc()
            alloc.valid = True
        alloc.stale_fraction = 0.0
    for move in loop.data_plan.create:
        arr = storage.arrays[move.array]
        if move.array not in mem.allocations:
            mem.alloc(move.array, arr.shape, arr.dtype)
    b_out = 0
    for move in loop.data_plan.copyout:
        arr = storage.arrays[move.array]
        if move.array not in mem.allocations:
            mem.alloc(move.array, arr.shape, arr.dtype)
        b_out += move.nbytes(scalar_env, arr)
    return b_in, b_out


def _run_device_shard(
    sched: "TaskSharingScheduler",
    device_id: int,
    shard: list[int],
    n_total: int,
    loop: TranslatedLoop,
    scalar_env: dict[str, object],
    storage: ArrayStorage,
    tl: Timeline,
    coalescing: float,
    buffered: bool,
    raw: list[int],
    tag: str = "",
) -> list[int]:
    """Run one shard on one device; returns indices left unexecuted.

    An empty return means the whole shard ran.  A non-empty return means
    the device died mid-shard (it is already marked dead in the pool and
    the degradation event recorded); because launch faults fire before
    any lane executes, the returned indices carry no partial writes.
    """
    ctx = sched.ctx
    cfg = ctx.config
    pool = ctx.pool
    dev = pool.device(device_id)
    cost = pool.cost_of(device_id)
    faults = ctx.faults

    b_in, b_out = register_device_data(sched, dev, loop, storage, scalar_env)
    frac = len(shard) / max(1, n_total)

    nchunks = max(1, min(cfg.sharing_chunks, len(shard)))
    chunks = [c for c in block_partition(shard, nchunks) if c]
    glane, dlane = gpu_lane(device_id), dma_lane(device_id)
    asynchronous = cfg.async_prefetch

    executed = 0
    kernel_events = []
    if asynchronous:
        per_chunk_in = (b_in * frac) / max(1, len(chunks))
    else:
        # no prefetch: one synchronous transfer for the whole shard
        tl.schedule(
            dlane,
            cost.transfer_time(b_in * frac, asynchronous=False),
            label=f"h2d-sync{tag}",
        )
    for k, chunk in enumerate(chunks):
        if asynchronous:
            dma = tl.schedule(
                dlane,
                cost.transfer_time(per_chunk_in, asynchronous=True),
                label=f"h2d#{k}{tag}",
            )
            deps = [dma]
        else:
            deps = []
        try:
            launch = dev.launch(
                loop.fn,
                chunk,
                scalar_env,
                storage,
                mode="buffered" if buffered else "direct",
                coalescing=coalescing,
                elem_bytes=loop.elem_bytes,
                block_size=loop.annotation.threads,
            )
        except RuntimeFaultError as err:
            if not is_recoverable_fault(err):
                raise
            pool.mark_dead(device_id)
            faults.recorder.clock_s = tl.makespan
            leftover = [i for c in chunks[k:] for i in c]
            faults.degraded(
                err.site,
                f"gpu{device_id}->drain",
                detail=(
                    f"device {device_id} died with {len(leftover)} "
                    f"iterations pending: {err}"
                ),
            )
            self_frac = executed / max(1, n_total)
            _shard_epilogue(
                sched, dev, cost, tl, dlane, kernel_events,
                b_out, self_frac, asynchronous, tag,
            )
            return leftover
        if buffered:
            launch.lanes.commit(storage, sorted(chunk))
        launch.counts.add_to_raw(raw)
        executed += len(chunk)
        kernel_events.append(
            tl.schedule(
                glane, launch.sim_time_s, after=deps,
                label=f"kernel#{k}{tag}",
            )
        )
    _shard_epilogue(
        sched, dev, cost, tl, dlane, kernel_events,
        b_out, frac, asynchronous, tag,
    )
    return []


def _shard_epilogue(
    sched, dev, cost, tl, dlane, kernel_events, b_out, frac, asynchronous, tag
):
    """Copy the executed fraction's outputs back after the last kernel."""
    if not kernel_events or b_out * frac <= 0:
        return
    out_bytes = sched.ctx.faults.charge_transfer(
        SITE_TRANSFER_D2H, b_out * frac, dev.device_id
    )
    sched._count_d2h(out_bytes)
    tl.schedule(
        dlane,
        cost.transfer_time(out_bytes, asynchronous=asynchronous),
        after=[kernel_events[-1]],
        label=f"d2h{tag}",
    )


def run_sharded_mode_a(
    sched: "TaskSharingScheduler",
    loop: TranslatedLoop,
    indices: list[int],
    scalar_env: dict[str, object],
    storage: ArrayStorage,
    tl: Timeline,
    coalescing: float,
    buffered: bool = False,
) -> ExecutionResult:
    """Mode A / D' across the device pool: sharded PE + CPU MT.

    The CPU/GPU boundary uses the pool-generalized formula
    ``sum(Ci*Fi) / (sum(Ci*Fi) + Cc*Fc)``; the GPU part is then
    weight-partitioned across the alive devices.
    """
    ctx = sched.ctx
    cfg = ctx.config
    pool = ctx.pool
    gpu_idx, cpu_idx = split_at_boundary(indices, ctx.boundary())
    n_total = max(1, len(indices))
    frac_gpu = len(gpu_idx) / n_total

    raw = [0] * N_COUNTERS
    outcome = ShardOutcome()
    drained: list[int] = []
    alive = pool.alive_ids()
    if alive:
        shards = partition_weighted(gpu_idx, [pool.weight(k) for k in alive])
    else:
        # the whole pool died in an earlier dispatch of this run: any
        # GPU-side iterations go straight to the CPU drain below
        shards = []
        drained = list(gpu_idx)
    for pos, k in enumerate(alive):
        shard = shards[pos]
        if not shard:
            continue
        leftover = _run_device_shard(
            sched, k, shard, n_total, loop, scalar_env, storage, tl,
            coalescing, buffered, raw,
        )
        if leftover:
            outcome.dead_devices.append(k)
            drained.extend(leftover)
        outcome.per_device[k] = outcome.per_device.get(k, 0) + (
            len(shard) - len(leftover)
        )

    # drain dead devices' shards to survivors (seeded tie-break between
    # devices whose compute lanes free up at the same instant)
    attempt = 0
    while drained and pool.alive_ids():
        survivors = pool.alive_ids()
        free = {k: tl.barrier([gpu_lane(k)]) for k in survivors}
        best = min(free.values())
        ties = [k for k in survivors if free[k] == best]
        k = ties[
            seeded_pick(ctx.scheduler_seed, ("drain", loop.id, attempt),
                        len(ties))
        ]
        batch, drained = list(drained), []
        leftover = _run_device_shard(
            sched, k, batch, n_total, loop, scalar_env, storage, tl,
            coalescing, buffered, raw, tag=f"-drain{attempt}",
        )
        if leftover:
            outcome.dead_devices.append(k)
            drained = leftover
        outcome.drained += len(batch) - len(leftover)
        outcome.per_device[k] = outcome.per_device.get(k, 0) + (
            len(batch) - len(leftover)
        )
        attempt += 1

    if drained:
        # every device is dead: the leftover runs on the CPU thread pool
        # (the same rung the single-device ladder degrades to)
        ctx.faults.degraded(
            SITE_GPU_LAUNCH,
            "pool->cpu-mt",
            detail=f"all devices dead; {len(drained)} iterations to CPU",
        )
        run = ctx.cpu.run_parallel(
            loop.fn,
            storage,
            scalar_env,
            drained,
            threads=cfg.cpu_threads,
            elem_bytes=loop.elem_bytes,
        )
        run.counts.add_to_raw(raw)
        tl.schedule(LANE_CPU, run.sim_time_s, label="cpu-mt-drain")
        sched._cpu_wrote(loop, len(drained) / n_total)
        outcome.drained_to_cpu = len(drained)

    # CPU side: the right part, multithreaded, walked descending
    if cpu_idx:
        cpu_run = ctx.cpu.run_parallel(
            loop.fn,
            storage,
            scalar_env,
            descending(cpu_idx),
            threads=cfg.cpu_threads,
            elem_bytes=loop.elem_bytes,
        )
        cpu_run.counts.add_to_raw(raw)
        tl.schedule(LANE_CPU, cpu_run.sim_time_s, label="cpu-mt")
        sched._cpu_wrote(loop, 1.0 - frac_gpu)

    m = ctx.obs.metrics
    for k, n_iter in outcome.per_device.items():
        m.counter(f"scheduler.shard.iterations.d{k}").inc(n_iter)
    if outcome.drained:
        m.counter("scheduler.shard.drained").inc(outcome.drained)
    if attempt:
        # drain rounds run under fault recovery; the insight plane's
        # bucket attribution keys off the "-drainN" event labels and this
        # counter reconciles the two views
        m.counter("scheduler.shard.drain_batches").inc(attempt)
    if outcome.drained_to_cpu:
        m.counter("scheduler.shard.drained_to_cpu").inc(
            outcome.drained_to_cpu
        )

    return ExecutionResult(
        arrays=storage.arrays,
        sim_time_s=tl.makespan,
        counts=Counts.from_raw(raw),
        timeline=tl,
        detail={
            "gpu_iterations": len(gpu_idx) - outcome.drained_to_cpu,
            "cpu_iterations": len(cpu_idx) + outcome.drained_to_cpu,
            "shards": outcome,
        },
    )
