"""Privatization executor: PE(V) for loops carrying only false
dependencies (mode D / D' of the task-sharing scheme).

Each GPU thread receives a private copy of the conflicting variables —
"the privatized variables are only updated after all the iterations
finish execution and data are copied back to the host memory" — realized
two ways:

* **renamed fast path**: when the profile shows every iteration writes
  the same cell set of each privatized 1-D array, the kernel is rewritten
  (:mod:`repro.tls.rename`) so each lane uses a private row; a
  straight-line body then runs through the vectorized executor, and the
  copy-back takes the sequentially-last lane's row;
* **buffered path**: otherwise the per-lane SE write buffers isolate
  writes, and the commit applies buffers in iteration order (last writer
  per cell wins, matching sequential semantics).

Privatization is only legal with no cross-iteration flow dependence; the
buffered path verifies that at runtime via the DC machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import SpeculationError
from ..gpusim.device import GpuDevice
from ..ir.columnar import lane_vector
from ..ir.instructions import IRFunction
from ..ir.interpreter import ArrayStorage, Counts
from ..ir.vectorizer import can_vectorize
from ..profiler.report import DependencyProfile
from .depcheck import check_subloop
from .rename import PRIV_BASE, priv_name, rename_privatized

#: SE-style buffering overhead of the privatized kernel vs. a plain one.
PRIVATIZATION_OVERHEAD = 1.25
#: Cap on (lanes x cells) for the renamed fast path's expanded arrays.
MAX_PRIVATE_CELLS = 64_000_000


@dataclass
class PrivatizeResult:
    counts: Counts
    kernel_time_s: float
    commit_time_s: float
    cells_committed: int
    bytes_committed: int
    renamed: bool = False

    @property
    def sim_time_s(self) -> float:
        return self.kernel_time_s + self.commit_time_s


def run_privatized(
    device: GpuDevice,
    fn: IRFunction,
    indices: Sequence[int],
    scalar_env: dict[str, object],
    storage: ArrayStorage,
    coalescing: float = 1.0,
    elem_bytes: float = 8.0,
    verify_no_td: bool = True,
    profile: Optional[DependencyProfile] = None,
) -> PrivatizeResult:
    """Execute a FD-only loop on the GPU with variable privatization.

    ``profile`` (when given) selects the privatized arrays and enables
    the renamed fast path; without it every FD candidate falls back to
    the buffered path.
    """
    if not indices:
        return PrivatizeResult(Counts(), 0.0, 0.0, 0, 0)

    if profile is not None:
        fast = _try_renamed(
            device, fn, indices, scalar_env, storage, coalescing,
            elem_bytes, profile,
        )
        if fast is not None:
            return fast

    launch = device.launch(
        fn,
        indices,
        scalar_env,
        storage,
        mode="buffered",
        coalescing=coalescing,
        elem_bytes=elem_bytes,
    )
    if verify_no_td:
        dc = check_subloop(launch.lanes)
        if not dc.ok:
            v = dc.violations[0]
            raise SpeculationError(
                f"privatized execution observed a true dependence on "
                f"{v.array!r} (iteration {v.src_iteration} -> "
                f"{v.iteration}); privatization is not legal for this loop"
            )
    cells, nbytes = launch.lanes.commit(storage, indices)
    commit_time = (
        nbytes / (device.spec.mem_bandwidth_gbps * 1e9)
        + device.spec.launch_overhead_s
    )
    return PrivatizeResult(
        counts=launch.counts,
        kernel_time_s=launch.sim_time_s * PRIVATIZATION_OVERHEAD,
        commit_time_s=commit_time,
        cells_committed=cells,
        bytes_committed=nbytes,
    )


def _try_renamed(
    device: GpuDevice,
    fn: IRFunction,
    indices: Sequence[int],
    scalar_env: dict[str, object],
    storage: ArrayStorage,
    coalescing: float,
    elem_bytes: float,
    profile: DependencyProfile,
) -> Optional[PrivatizeResult]:
    """Renamed-privatization fast path; None when conditions do not hold."""
    if profile.has_true:
        return None  # privatization alone cannot be legal
    privatized = profile.privatizable_arrays
    if not privatized or not can_vectorize(fn):
        return None
    if not privatized <= profile.uniform_write_arrays:
        return None
    # indices must be contiguous ascending for lane = index - base
    if np.any(np.diff(lane_vector(indices)) != 1):
        return None
    known = {a.name: a for a in fn.arrays}
    for name in privatized:
        arr = known.get(name)
        if arr is None or arr.dims != 1:
            return None
        if len(indices) * storage.shapes[name][0] > MAX_PRIVATE_CELLS:
            return None

    renamed = rename_privatized(fn, privatized)
    # bind expanded per-lane arrays, rows initialized from the host state
    bound: list[str] = []
    try:
        for name in privatized:
            original = storage.arrays[name]
            expanded = np.tile(original, (len(indices), 1))
            storage.bind(priv_name(name), expanded)
            bound.append(priv_name(name))
        env = dict(scalar_env)
        env[PRIV_BASE] = indices[0]
        launch = device.launch(
            renamed,
            indices,
            scalar_env=env,
            storage=storage,
            mode="direct",
            coalescing=coalescing,
            elem_bytes=elem_bytes,
            check_allocations=False,
        )
        cells = 0
        nbytes = 0
        for name in privatized:
            expanded = storage.arrays[priv_name(name)]
            storage.arrays[name][:] = expanded[-1]
            cells += storage.arrays[name].size
            nbytes += storage.arrays[name].nbytes
    finally:
        for name in bound:
            del storage.arrays[name]
            del storage.shapes[name]
    commit_time = (
        nbytes / (device.spec.mem_bandwidth_gbps * 1e9)
        + device.spec.launch_overhead_s
    )
    return PrivatizeResult(
        counts=launch.counts,
        kernel_time_s=launch.sim_time_s * PRIVATIZATION_OVERHEAD,
        commit_time_s=commit_time,
        cells_committed=cells,
        bytes_committed=nbytes,
        renamed=True,
    )
