"""The simulated GPU device: kernel launches over lanes.

A launch executes the kernel IR once per iteration index ("the loop index
is remapped to the CUDA thread ID").  Execution is *functional* — lanes
really compute — and *metered* — dynamic work counts are converted to
simulated kernel time by the cost model.  Three launch modes correspond
to the three device-side execution styles in the paper:

``buffered``
    SE-phase style: per-lane write buffers + read/write logs, returned
    as a :class:`ColumnarLanes` SE log whatever engine ran the lanes.
    Used by the profiler (its writes stay buffered, so program state is
    not perturbed), GPU-TLS, privatization, and by DOALL execution
    (whose commit is trivially safe).
``tracing``
    Direct writes to the real storage plus a per-lane address trace
    (:class:`TracingBackend`), returned in ``LaunchResult.traces``.
``direct``
    Straight execution of a DOALL launch: the dispatcher runs it in
    lock-step when it is straight-line or wide, checked for lanes that
    touch one another's cells (then it reruns lane by lane).

``LaunchResult.vectorized`` marks a straight-line kernel's non-empty
buffered or direct launch, whose lanes are uniform (divergence 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import (
    DeviceMemoryFault,
    LaunchError,
    LaunchFault,
    WatchdogTimeout,
)
from ..faults.plane import SITE_GPU_HANG, SITE_GPU_LAUNCH
from ..faults.resilience import FaultRuntime
from ..ir.instructions import IRFunction, stored_arrays
from ..ir.interpreter import ArrayStorage, Counts
from ..ir.columnar import ColumnarLanes
from ..ir.native import KernelDispatcher
from ..ir.vectorizer import can_vectorize
from ..obs.metrics import NULL_INSTRUMENTATION, Instrumentation
from ..runtime.costmodel import CostModel
from ..runtime.platform import GpuSpec
from .memory import DeviceMemory
from .warp import divergence_factor


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    counts: Counts
    sim_time_s: float
    n_threads: int
    #: lock-step SIMD divergence penalty measured for this launch
    divergence: float = 1.0
    #: the launch's SE log (buffered mode only)
    lanes: Optional[ColumnarLanes] = None
    #: per-iteration address traces (tracing mode only)
    traces: dict[int, list] = field(default_factory=dict)
    vectorized: bool = False


class GpuDevice:
    """One simulated GPU with its allocation table and launch engine."""

    def __init__(
        self,
        spec: GpuSpec,
        cost: CostModel,
        faults: Optional[FaultRuntime] = None,
        obs: Optional[Instrumentation] = None,
        device_id: int = 0,
        kernels: Optional[KernelDispatcher] = None,
    ):
        self.spec = spec
        self.cost = cost
        self.faults = faults
        self.obs = obs or NULL_INSTRUMENTATION
        self.device_id = device_id
        self.memory = DeviceMemory(
            faults=faults, obs=self.obs, device_id=device_id
        )
        #: tiered kernel backend; every device of a pool and the CPU
        #: executor share one dispatcher (compile once per process), and
        #: all artifacts are keyed by content fingerprint, not id(fn)
        self.kernels = kernels or KernelDispatcher(obs=self.obs)

    # -- launches -------------------------------------------------------

    def launch(
        self,
        fn: IRFunction,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        mode: str = "buffered",
        coalescing: float = 1.0,
        elem_bytes: float = 8.0,
        check_allocations: bool = True,
        block_size: Optional[int] = None,
    ) -> LaunchResult:
        """Execute ``fn`` for every index in ``indices`` as one kernel.

        ``block_size`` is the CUDA threads-per-block of the launch (the
        annotation's ``threads(n)`` clause); a block size that is not a
        multiple of the warp size wastes the padding lanes of its last
        warp, modelled as a compute inflation factor.  ``indices`` is
        read, never copied: a ``range`` reaches the kernel as one.
        """
        if block_size is not None and block_size <= 0:
            raise LaunchError(f"invalid block size {block_size}")
        penalty_s = self._fault_preamble(fn, check_allocations)

        if mode == "direct":
            return self._launch_direct(
                fn, indices, scalar_env, storage, coalescing, elem_bytes,
                mark_writes=check_allocations, block_size=block_size,
                penalty_s=penalty_s,
            )
        if mode == "buffered":
            per_lane, aux = self.kernels.run_buffered(
                fn, indices, scalar_env, storage
            )
        elif mode == "tracing":
            per_lane, aux = self.kernels.run_tracing(
                fn, indices, scalar_env, storage
            )
        else:
            raise LaunchError(f"unknown launch mode {mode!r}")

        counts = self.kernels.take_counts(fn)
        vectorized = mode == "buffered" and can_vectorize(fn) and bool(indices)
        div = self._divergence(per_lane, vectorized, block_size)
        sim_time = penalty_s + self.cost.gpu_kernel_time(
            counts, len(indices), coalescing=coalescing,
            elem_bytes=elem_bytes, divergence=div,
        )
        result = LaunchResult(
            counts, sim_time, len(indices), divergence=div,
            vectorized=vectorized,
        )
        if mode == "buffered":
            result.lanes = aux
        else:
            result.traces = aux
        if check_allocations:
            self._mark_writes(fn)
        self._record_launch(mode, len(indices), div, sim_time, vectorized)
        return result

    def _launch_direct(
        self,
        fn: IRFunction,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
        coalescing: float,
        elem_bytes: float,
        mark_writes: bool = True,
        block_size: Optional[int] = None,
        penalty_s: float = 0.0,
    ) -> LaunchResult:
        per_lane = self.kernels.run_direct(
            fn, indices, scalar_env, storage, parallel=True
        )
        counts = self.kernels.take_counts(fn)
        vectorized = can_vectorize(fn) and bool(indices)
        div = self._divergence(per_lane, vectorized, block_size)
        sim_time = penalty_s + self.cost.gpu_kernel_time(
            counts, len(indices), coalescing=coalescing,
            elem_bytes=elem_bytes, divergence=div,
        )
        if mark_writes:
            self._mark_writes(fn)
        self._record_launch("direct", len(indices), div, sim_time, vectorized)
        return LaunchResult(
            counts, sim_time, len(indices), vectorized=vectorized,
            divergence=div,
        )

    def _divergence(self, per_lane, vectorized: bool, block_size) -> float:
        """The launch's divergence factor, padding included; a
        straight-line kernel's lanes are uniform, so it is exactly 1."""
        div = self._block_padding(block_size)
        if not vectorized:
            div *= divergence_factor(per_lane, self.spec.warp_size)
        return div

    def _record_launch(
        self, mode: str, n: int, div: float, sim_time: float, vectorized: bool
    ) -> None:
        m = self.obs.metrics
        m.counter("gpu.launches").inc()
        m.counter(f"gpu.launches.{mode}").inc()
        m.counter(f"gpu.launches.d{self.device_id}").inc()
        m.counter("gpu.threads").inc(n)
        m.counter("gpu.kernel_s").inc(sim_time)
        m.histogram("gpu.divergence").observe(div)
        if vectorized:
            m.counter("gpu.vectorized_launches").inc()

    # -- resilience --------------------------------------------------------

    def _fault_preamble(self, fn: IRFunction, check_allocations: bool) -> float:
        """Allocation checks + injected-fault gate before a launch.

        With no fault plane this reduces to the original allocation check
        and returns 0.  Under injection the gate retries transient launch
        faults with exponential backoff, charges the watchdog window for
        hung kernels, and re-validates corrupted allocation-table entries
        (a full re-transfer of the affected arrays).  Returns the
        simulated seconds consumed before the kernel finally ran; raises
        the last typed error once the retry budget is exhausted.

        Faults are injected strictly *before* any lane executes, so a
        failed launch never leaves partial writes behind.
        """
        faults = self.faults
        if faults is None or not faults.enabled:
            if check_allocations:
                self._check_allocations(fn)
            return 0.0
        policy = faults.policy
        penalty = 0.0
        retries = 0
        while True:
            try:
                if check_allocations:
                    self._check_allocations(fn)
                if faults.probe(SITE_GPU_LAUNCH, self.device_id) is not None:
                    raise LaunchFault(
                        "injected kernel launch failure",
                        site=SITE_GPU_LAUNCH,
                        at_s=faults.recorder.clock_s,
                        injected=True,
                    )
                if faults.probe(SITE_GPU_HANG, self.device_id) is not None:
                    raise WatchdogTimeout(
                        "injected kernel hang",
                        site=SITE_GPU_HANG,
                        at_s=faults.recorder.clock_s,
                        injected=True,
                    )
                return penalty
            except (LaunchFault, WatchdogTimeout, DeviceMemoryFault) as err:
                if not err.injected:
                    raise
                if isinstance(err, WatchdogTimeout):
                    # the kernel sat hung for the whole watchdog window
                    penalty += policy.watchdog_timeout_s
                    action = "watchdog-kill"
                elif isinstance(err, DeviceMemoryFault):
                    moved = self.memory.revalidate(
                        arr.name for arr in fn.arrays
                    )
                    penalty += self.cost.transfer_time(moved, asynchronous=False)
                    action = "revalidate"
                else:
                    action = "relaunch"
                if retries >= policy.max_retries:
                    raise type(err)(
                        f"GPU gave up after {retries + 1} attempts: {err}",
                        site=err.site,
                        at_s=faults.recorder.clock_s,
                        retries=retries + 1,
                    )
                backoff = faults.backoff_for(err.site, retries)
                penalty += backoff
                faults.recovered(
                    err.site, action, penalty_s=backoff, retries=retries + 1,
                )
                m = self.obs.metrics
                m.counter("resilience.retry.attempts").inc()
                m.counter("resilience.backoff_s").inc(backoff)
                retries += 1

    # -- helpers -----------------------------------------------------------

    def _block_padding(self, block_size: Optional[int]) -> float:
        """Compute inflation from a block size that pads its last warp."""
        if block_size is None:
            return 1.0
        wsize = self.spec.warp_size
        padded = -(-block_size // wsize) * wsize
        return padded / block_size

    def _check_allocations(self, fn: IRFunction) -> None:
        written = stored_arrays(fn)
        for arr in fn.arrays:
            self.memory.require(arr.name, for_read=arr.name not in written)

    def _mark_writes(self, fn: IRFunction) -> None:
        for name in stored_arrays(fn):
            self.memory.mark_written(name)
