"""GPU-TLS engine: incremental speculative loop execution.

"GPU-TLS adopts an incremental solution dividing the target loop into
several sub-loops and each sub-loop is coupled with a GPU kernel.  A GPU
kernel will go through four phases: speculative execution (SE),
dependency checking (DC), commit and mis-speculation recovery."

The engine walks the iteration space sub-loop by sub-loop.  Each sub-loop
runs the SE phase; DC scans the metadata; the clean prefix commits; on a
violation the recovery policy either relaunches the kernel from the
violating warp or hands the next warps to the CPU for sequential
execution (consulting the dependency profile), after which speculation
resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..cpusim.executor import CpuExecutor
from ..errors import RuntimeFaultError, SpeculationError
from ..faults.resilience import is_recoverable_fault
from ..gpusim.device import GpuDevice
from ..ir.instructions import IRFunction
from ..ir.interpreter import N_COUNTERS, ArrayStorage, Counts
from ..obs.metrics import NULL_INSTRUMENTATION, Instrumentation
from ..profiler.report import DependencyProfile
from ..runtime.clock import LANE_CPU, LANE_GPU, Timeline
from .depcheck import check_subloop
from .recovery import (
    DEFAULT_LOOKAHEAD_WARPS,
    RecoveryAction,
    decide_recovery,
)
from .speculate import speculative_run

#: Modelled GPU cost per metadata entry scanned in the DC phase (seconds).
DC_COST_PER_ENTRY = 1.5e-9


@dataclass
class TlsConfig:
    """Tuning knobs of the TLS engine."""

    warps_per_subloop: int = 8
    lookahead_warps: int = DEFAULT_LOOKAHEAD_WARPS
    max_relaunches: int = 1_000_000
    #: transfer cost charged per relaunch / CPU handoff.  A runtime
    #: without resident speculative state (the GPU-alone build) must
    #: round-trip the loop's data across the PCIe link to recover from a
    #: mis-speculation; the Japonica runtime keeps buffers on the device
    #: and pays nothing.
    relaunch_transfer_s: float = 0.0


@dataclass
class TlsStats:
    """What happened during a TLS execution (for tests and reports)."""

    subloops: int = 0
    violations: int = 0
    relaunches: int = 0
    cpu_handoffs: int = 0
    cpu_iterations: int = 0
    committed_iterations: int = 0
    squashed_iterations: int = 0
    cells_committed: int = 0
    events: list[str] = field(default_factory=list)


@dataclass
class TlsResult:
    counts: Counts
    sim_time_s: float
    stats: TlsStats
    timeline: Timeline


class GpuTlsEngine:
    """Executes a loop with moderate TD density speculatively on the GPU."""

    def __init__(
        self,
        device: GpuDevice,
        cpu: CpuExecutor,
        config: Optional[TlsConfig] = None,
        obs: Optional[Instrumentation] = None,
    ):
        self.device = device
        self.cpu = cpu
        self.config = config or TlsConfig()
        self.obs = obs or NULL_INSTRUMENTATION

    def execute(
        self,
        fn: IRFunction,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        profile: Optional[DependencyProfile] = None,
        coalescing: float = 1.0,
        elem_bytes: float = 8.0,
        timeline: Optional[Timeline] = None,
    ) -> TlsResult:
        """Run all iterations with TLS; functional result is sequential.
        Sub-loops, commits and CPU handoffs are slices of ``indices``."""
        warp_size = self.device.spec.warp_size
        sub_size = max(warp_size, self.config.warps_per_subloop * warp_size)
        tl = timeline if timeline is not None else Timeline()
        stats = TlsStats()
        raw = [0] * N_COUNTERS  # hot loop: accumulate raw, fold at the end

        pos = 0
        n = len(indices)
        relaunches_left = self.config.max_relaunches
        while pos < n:
            chunk = indices[pos : pos + sub_size]
            try:
                se = speculative_run(
                    self.device,
                    fn,
                    chunk,
                    scalar_env,
                    storage,
                    coalescing=coalescing,
                    elem_bytes=elem_bytes,
                )
            except RuntimeFaultError as err:
                # engine-level recovery: a speculative kernel that keeps
                # faulting is relaunched over a smaller sub-loop (SE
                # buffers are per-launch, so a failed launch committed
                # nothing).  At warp granularity there is nothing left
                # to shrink — escalate to the scheduler's ladder.
                faults = self.device.faults
                if faults is None or not is_recoverable_fault(err):
                    raise
                if sub_size <= warp_size:
                    raise
                sub_size = max(warp_size, sub_size // 2)
                stats.events.append(f"shrink@{pos}->{sub_size}")
                faults.degraded(
                    err.site, "tls-shrink",
                    detail=f"sub-loop -> {sub_size} iterations",
                )
                tl.schedule(
                    LANE_GPU, faults.policy.backoff_base_s,
                    label=f"shrink@{pos}",
                )
                continue
            se.counts.add_to_raw(raw)
            stats.subloops += 1
            tl.schedule(LANE_GPU, se.kernel_time_s, label=f"SE@{pos}")

            dc = check_subloop(se.lanes)
            tl.schedule(
                LANE_GPU,
                se.lanes.logged_accesses() * DC_COST_PER_ENTRY
                + self.device.spec.launch_overhead_s,
                label=f"DC@{pos}",
            )

            # commit applies buffers in iteration order, so overlapping
            # writes resolve to the sequentially-last writer.  Only the
            # clean *prefix* (every iteration before the earliest
            # violation) commits: the paper commits "those threads not
            # found to have violations", and a clean thread after a
            # violating one is simply re-executed after recovery — a
            # conservative refinement that keeps re-executed writes from
            # invalidating already-committed state.
            if dc.ok:
                cells, nbytes = se.lanes.commit(storage, chunk)
                stats.cells_committed += cells
                stats.committed_iterations += len(chunk)
                tl.schedule(
                    LANE_GPU,
                    nbytes / (self.device.spec.mem_bandwidth_gbps * 1e9)
                    + self.device.spec.launch_overhead_s,
                    label=f"commit@{pos}",
                )
                pos += len(chunk)
                continue

            # --- mis-speculation ---
            stats.violations += 1
            v_pos = dc.first_violation_pos
            clean = chunk[:v_pos]
            cells, nbytes = se.lanes.commit(storage, clean)
            stats.cells_committed += cells
            stats.committed_iterations += len(clean)
            stats.squashed_iterations += len(chunk) - len(clean)
            tl.schedule(
                LANE_GPU,
                nbytes / (self.device.spec.mem_bandwidth_gbps * 1e9)
                + self.device.spec.launch_overhead_s,
                label=f"commit-prefix@{pos}",
            )
            pos += len(clean)

            global_warp = pos // warp_size
            decision = decide_recovery(
                profile,
                global_warp,
                self.config.lookahead_warps,
                warps_remaining=-(-(n - pos) // warp_size),
            )
            if decision.action is RecoveryAction.RELAUNCH_GPU:
                if relaunches_left <= 0:
                    raise SpeculationError(
                        "TLS relaunch budget exhausted; loop makes no progress"
                    )
                relaunches_left -= 1
                stats.relaunches += 1
                stats.events.append(f"relaunch@{pos}")
                if self.config.relaunch_transfer_s > 0:
                    tl.schedule(
                        LANE_GPU,
                        self.config.relaunch_transfer_s,
                        label=f"relaunch-xfer@{pos}",
                    )
                # guarantee forward progress: the violating iteration (the
                # first uncommitted one) runs sequentially-safe because the
                # next sub-loop starts at it and everything before it has
                # committed; if it violates again within the new sub-loop
                # it can only be against *later* writers, impossible for
                # position 0... unless it reads its own warp; to be safe,
                # fall through and let the loop retry (position 0 of the
                # next chunk cannot have an earlier writer, so DC cannot
                # flag it again).
                continue

            # CPU sequential handoff for the next `cpu_warps` warps
            take = min(
                decision.cpu_warps * warp_size,
                n - pos,
            )
            handoff = indices[pos : pos + take]
            if self.config.relaunch_transfer_s > 0:
                tl.schedule(
                    LANE_GPU,
                    self.config.relaunch_transfer_s,
                    label=f"handoff-xfer@{pos}",
                )
            cpu_run = self.cpu.run_serial(
                fn, storage, scalar_env, handoff, elem_bytes=elem_bytes
            )
            cpu_run.counts.add_to_raw(raw)
            stats.cpu_handoffs += 1
            stats.cpu_iterations += len(handoff)
            stats.committed_iterations += len(handoff)
            stats.events.append(f"cpu@{pos}+{take}")
            tl.schedule(LANE_CPU, cpu_run.sim_time_s, label=f"cpu-seq@{pos}")
            # the GPU waits for the CPU segment (detection repeats after)
            tl.schedule(LANE_GPU, 0.0, not_before=tl.barrier([LANE_CPU]))
            pos += take

        self._record_stats(stats)
        return TlsResult(
            counts=Counts.from_raw(raw),
            sim_time_s=tl.makespan,
            stats=stats,
            timeline=tl,
        )

    def _record_stats(self, stats: TlsStats) -> None:
        m = self.obs.metrics
        m.counter("tls.runs").inc()
        m.counter("tls.subloops").inc(stats.subloops)
        m.counter("tls.violations").inc(stats.violations)
        m.counter("tls.relaunches").inc(stats.relaunches)
        m.counter("tls.cpu_handoffs").inc(stats.cpu_handoffs)
        m.counter("tls.cpu_iterations").inc(stats.cpu_iterations)
        m.counter("tls.committed_iterations").inc(stats.committed_iterations)
        m.counter("tls.squashed_iterations").inc(stats.squashed_iterations)
        m.counter("tls.cells_committed").inc(stats.cells_committed)
