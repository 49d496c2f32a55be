"""Simulated device global memory.

Tracks allocations, validity and transfer byte counts for the simulated
GPU.  Functional array state lives in the host :class:`ArrayStorage`
(kernels read host data through buffered backends and commit write sets
back), but every kernel launch is checked against this allocation table —
a kernel touching an array that was never ``copyin``'d or ``create``'d
faults, exactly like dereferencing an unallocated device pointer.

This module is also the one place that decides which bytes move when a
loop (re-)enters a device: :meth:`DeviceMemory.stage` makes a loop's
operands resident and :meth:`DeviceMemory.copy_back` charges its
results' way home.  Every scheduler calls them on the device it runs
on, so each transfer probes the fault plane with that device's id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from ..errors import DeviceMemoryFault, MemoryFault
from ..faults.plane import (
    SITE_GPU_MEMORY,
    SITE_TRANSFER_D2H,
    SITE_TRANSFER_H2D,
)
from ..faults.resilience import FaultRuntime
from ..obs.metrics import NULL_INSTRUMENTATION, Instrumentation

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..translate.datamove import DataPlan


@dataclass
class DeviceAllocation:
    """One device-resident array."""

    name: str
    shape: tuple[int, ...]
    dtype: np.dtype
    #: True once host data has been copied in (reads are meaningful).
    valid: bool = False
    #: Fraction of the device copy that is out of date w.r.t. the host
    #: (1.0 = all of it).  The sharing runtime's communication optimizer
    #: transfers only the stale fraction on re-entry, which is how it
    #: "removes cyclic communication" across repeated loop dispatches.
    stale_fraction: float = 1.0

    @property
    def nbytes(self) -> int:
        size = 1
        for d in self.shape:
            size *= d
        return size * self.dtype.itemsize


@dataclass
class TransferStats:
    """Accumulated host<->device traffic."""

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    h2d_count: int = 0
    d2h_count: int = 0


class DeviceMemory:
    """Allocation table + transfer accounting for one simulated device."""

    def __init__(
        self,
        capacity_bytes: int = 3 * 1024**3,
        faults: Optional[FaultRuntime] = None,
        obs: Optional[Instrumentation] = None,
        device_id: int = 0,
    ):
        self.capacity_bytes = capacity_bytes
        self.allocations: dict[str, DeviceAllocation] = {}
        self.stats = TransferStats()
        self.faults = faults
        self.obs = obs or NULL_INSTRUMENTATION
        self.device_id = device_id

    def _faults_on(self) -> bool:
        return self.faults is not None and self.faults.enabled

    @property
    def allocated_bytes(self) -> int:
        return sum(a.nbytes for a in self.allocations.values())

    def alloc(self, name: str, shape: tuple[int, ...], dtype) -> DeviceAllocation:
        """``create`` clause: allocate without copying."""
        if name in self.allocations:
            raise MemoryFault(f"array {name!r} already allocated on device")
        allocation = DeviceAllocation(name, tuple(shape), np.dtype(dtype))
        if self.allocated_bytes + allocation.nbytes > self.capacity_bytes:
            raise MemoryFault(
                f"device out of memory allocating {name!r} "
                f"({allocation.nbytes} bytes)"
            )
        self.allocations[name] = allocation
        return allocation

    def free_all(self) -> None:
        self.allocations.clear()

    def require(self, name: str, for_read: bool = True) -> DeviceAllocation:
        """Fault unless ``name`` is allocated (and valid when read)."""
        allocation = self.allocations.get(name)
        if allocation is None:
            raise MemoryFault(
                f"kernel accesses array {name!r} which was never allocated "
                f"on the device (missing copyin/create clause?)"
            )
        if self._faults_on() and (
            self.faults.probe(SITE_GPU_MEMORY, self.device_id) is not None
        ):
            # injected table corruption: the entry is no longer trusted
            # until a re-validation transfer refreshes it
            allocation.valid = False
            raise DeviceMemoryFault(
                f"device allocation-table entry for {name!r} corrupted",
                site=SITE_GPU_MEMORY,
                at_s=self.faults.recorder.clock_s,
                injected=True,
            )
        if for_read and not allocation.valid:
            raise MemoryFault(
                f"kernel reads array {name!r} before any copyin "
                f"(device data is uninitialized)"
            )
        return allocation

    # -- transfers -----------------------------------------------------------

    def copyin(
        self,
        name: str,
        shape: tuple[int, ...],
        dtype,
        nbytes: Optional[int] = None,
    ) -> int:
        """Host -> device copy; allocates on first touch.

        Returns the bytes actually moved: under fault injection a failed
        transfer is re-issued (bounded by the resilience policy), so the
        returned byte count — which callers convert into simulated
        transfer time — already includes every re-issue.
        """
        allocation = self.allocations.get(name)
        if allocation is None:
            allocation = self.alloc(name, shape, dtype)
        moved = self._charge(
            SITE_TRANSFER_H2D, allocation.nbytes if nbytes is None else nbytes
        )
        allocation.valid = True
        self.stats.h2d_bytes += moved
        self.stats.h2d_count += 1
        m = self.obs.metrics
        m.counter("transfer.h2d.bytes").inc(moved)
        m.counter("transfer.h2d.count").inc()
        return moved

    def copy_back(self, nbytes: float) -> float:
        """Device -> host copy of ``nbytes``; returns the bytes moved.

        One transfer, probed with this device's id; under fault injection
        the returned count (which callers convert into simulated transfer
        time) includes every re-issue.  Accounted only when bytes moved.
        """
        moved = self._charge(SITE_TRANSFER_D2H, nbytes)
        if moved:
            self.stats.d2h_bytes += moved
            self.stats.d2h_count += 1
            m = self.obs.metrics
            m.counter("transfer.d2h.bytes").inc(moved)
            m.counter("transfer.d2h.count").inc()
        return moved

    def stage(
        self,
        plan: DataPlan,
        arrays: Mapping[str, np.ndarray],
        env: Mapping[str, object],
    ) -> tuple[float, int]:
        """Make a loop's operands resident; return ``(in_bytes, out_bytes)``.

        The communication optimizer keeps arrays resident across loop
        dispatches: a first touch copies the planned section in, and a
        resident copy moves only its *stale fraction* (the share a CPU
        write or a rollback invalidated since the last transfer).  This
        is the paper's cyclic-communication removal.  ``create`` and
        ``copyout`` arrays are allocated; ``out_bytes`` is what copying
        every ``copyout`` section back would move.
        """
        b_in = 0.0
        for move in plan.copyin:
            arr = arrays[move.array]
            nbytes = move.nbytes(env, arr)
            alloc = self.allocations.get(move.array)
            if alloc is None:
                # copyin's return already includes any fault re-issues
                b_in += self.copyin(move.array, arr.shape, arr.dtype, nbytes)
                alloc = self.allocations[move.array]
            else:
                refreshed = self._charge(
                    SITE_TRANSFER_H2D, nbytes * alloc.stale_fraction
                )
                b_in += refreshed
                if refreshed:
                    self.stats.h2d_bytes += refreshed
                    self.stats.h2d_count += 1
                    m = self.obs.metrics
                    m.counter("transfer.h2d.bytes").inc(refreshed)
                    m.counter("transfer.h2d.count").inc()
                alloc.valid = True
            alloc.stale_fraction = 0.0
        for move in plan.create + plan.copyout:
            if move.array not in self.allocations:
                arr = arrays[move.array]
                self.alloc(move.array, arr.shape, arr.dtype)
        return b_in, plan.total_out_bytes(env, arrays)

    def _charge(self, site: str, nbytes: float) -> float:
        """Bytes one transfer costs, re-issues included (device-probed)."""
        if self._faults_on():
            return self.faults.charge_transfer(site, nbytes, self.device_id)
        return nbytes

    def revalidate(self, names) -> int:
        """Re-validate corrupted table entries; returns bytes re-moved.

        The recovery path after an injected :class:`DeviceMemoryFault`:
        every named allocation that lost its ``valid`` bit is refreshed
        from the host (a full re-transfer, charged to the caller through
        the returned byte count).  No fault probing happens here — this
        *is* the recovery transfer.
        """
        moved = 0
        for name in names:
            allocation = self.allocations.get(name)
            if allocation is not None and not allocation.valid:
                allocation.valid = True
                moved += allocation.nbytes
                self.stats.h2d_bytes += allocation.nbytes
                self.stats.h2d_count += 1
        if moved:
            m = self.obs.metrics
            m.counter("transfer.h2d.bytes").inc(moved)
            m.counter("transfer.revalidated.bytes").inc(moved)
        return moved

    def mark_written(self, name: str) -> None:
        """A kernel wrote this array; the device copy becomes the
        authoritative version (valid, nothing stale)."""
        allocation = self.require(name, for_read=False)
        allocation.valid = True
        allocation.stale_fraction = 0.0
