"""SE phase: speculative sub-loop execution on the simulated GPU."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..gpusim.device import GpuDevice
from ..ir.columnar import ColumnarLanes
from ..ir.instructions import IRFunction
from ..ir.interpreter import ArrayStorage, Counts

#: Cost multiplier of the SE kernel over a plain kernel (write buffering
#: plus metadata bookkeeping around memory accesses).
SE_OVERHEAD = 1.8


@dataclass
class SeResult:
    """Speculative execution of one sub-loop."""

    order: list[int]
    lanes: ColumnarLanes
    counts: Counts
    kernel_time_s: float


def speculative_run(
    device: GpuDevice,
    fn: IRFunction,
    indices: Sequence[int],
    scalar_env: dict[str, object],
    storage: ArrayStorage,
    coalescing: float = 1.0,
    elem_bytes: float = 8.0,
) -> SeResult:
    """Run one sub-loop speculatively (buffered writes + access logs)."""
    order = list(indices)
    launch = device.launch(
        fn,
        order,
        scalar_env,
        storage,
        mode="buffered",
        coalescing=coalescing,
        elem_bytes=elem_bytes,
    )
    return SeResult(
        order=order,
        lanes=launch.lanes,
        counts=launch.counts,
        kernel_time_s=launch.sim_time_s * SE_OVERHEAD,
    )
