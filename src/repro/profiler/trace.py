"""Profiling runs: execute instrumented kernels on the GPU simulator.

The profiler executes the loops "marked by the code translator on GPU in
parallel" with SE-style instrumentation: writes are buffered (so program
state is not perturbed) and upward-exposed reads are logged.  The logs
feed the density analysis; the run itself is charged to the simulated
clock with an instrumentation slowdown factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..gpusim.device import GpuDevice
from ..ir.instructions import IRFunction
from ..ir.interpreter import ArrayStorage
from .coalesce import estimate_coalescing
from .density import analyze_lanes
from .report import DependencyProfile
from .strides import compression_ratio

#: Cost multiplier of the instrumented kernel vs. the plain kernel.
INSTRUMENTATION_FACTOR = 2.5
#: Modelled per-logged-access analysis cost (seconds) for the DD pass.
ANALYSIS_COST_PER_ACCESS = 2e-9


@dataclass
class ProfilingRun:
    """Raw profiling artifacts, kept for diagnostics and tests."""

    profile: DependencyProfile
    sampled_iterations: int


def profile_loop(
    device: GpuDevice,
    fn: IRFunction,
    indices: Sequence[int],
    scalar_env: dict[str, object],
    storage: ArrayStorage,
    max_sample: Optional[int] = None,
    warp_size: Optional[int] = None,
) -> ProfilingRun:
    """Profile one loop on the simulated GPU.

    ``max_sample`` caps the number of iterations actually instrumented
    (a prefix — dependence distances observed in a prefix generalize for
    the stationary patterns the benchmarks exhibit); densities are
    computed over the sampled window.
    """
    # a slice of a range is a range: the sample reaches the kernel as one
    sample = indices if max_sample is None else indices[: max(1, max_sample)]
    wsize = warp_size if warp_size is not None else device.spec.warp_size

    launch = device.launch(
        fn,
        sample,
        scalar_env,
        storage,
        mode="buffered",
        check_allocations=False,
    )
    lanes = launch.lanes
    profile = analyze_lanes(lanes, warp_size=wsize)
    profile.coalescing = estimate_coalescing(lanes, wsize)
    profile.compression_ratio = compression_ratio(lanes)
    profile.profile_time_s = (
        launch.sim_time_s * INSTRUMENTATION_FACTOR
        + lanes.logged_accesses() * ANALYSIS_COST_PER_ACCESS
    )
    return ProfilingRun(profile=profile, sampled_iterations=len(sample))
