"""Device memory tests: allocation, validity, transfer accounting."""

import numpy as np
import pytest

from repro.errors import MemoryFault
from repro.faults import FaultRuntime, FaultSchedule, SiteRule
from repro.gpusim.memory import DeviceMemory
from repro.translate.datamove import DataMove, DataPlan


class TestAllocation:
    def test_alloc_and_bytes(self):
        mem = DeviceMemory()
        a = mem.alloc("a", (100,), np.float64)
        assert a.nbytes == 800
        assert mem.allocated_bytes == 800

    def test_double_alloc_rejected(self):
        mem = DeviceMemory()
        mem.alloc("a", (4,), np.float64)
        with pytest.raises(MemoryFault):
            mem.alloc("a", (4,), np.float64)

    def test_capacity_enforced(self):
        mem = DeviceMemory(capacity_bytes=100)
        with pytest.raises(MemoryFault, match="out of memory"):
            mem.alloc("big", (1000,), np.float64)

    def test_free_all(self):
        mem = DeviceMemory()
        mem.alloc("a", (4,), np.float64)
        mem.alloc("b", (4,), np.int32)
        mem.free_all()
        assert not mem.allocations


class TestValidity:
    def test_read_before_copyin_faults(self):
        mem = DeviceMemory()
        mem.alloc("a", (4,), np.float64)
        with pytest.raises(MemoryFault, match="before any copyin"):
            mem.require("a", for_read=True)

    def test_unallocated_access_faults(self):
        mem = DeviceMemory()
        with pytest.raises(MemoryFault, match="never allocated"):
            mem.require("ghost")

    def test_copyin_marks_valid(self):
        mem = DeviceMemory()
        mem.copyin("a", (4,), np.float64)
        assert mem.require("a", for_read=True).valid

    def test_write_marks_valid(self):
        mem = DeviceMemory()
        mem.alloc("a", (4,), np.float64)
        mem.mark_written("a")
        assert mem.allocations["a"].valid


class TestTransfers:
    def test_copyin_accounting(self):
        mem = DeviceMemory()
        moved = mem.copyin("a", (128,), np.float64)
        assert moved == 1024
        assert mem.stats.h2d_bytes == 1024
        assert mem.stats.h2d_count == 1

    def test_partial_copyin_bytes(self):
        mem = DeviceMemory()
        mem.copyin("a", (128,), np.float64, nbytes=64)
        assert mem.stats.h2d_bytes == 64

    def test_copy_back_accounting(self):
        mem = DeviceMemory()
        moved = mem.copy_back(64)
        assert moved == 64
        assert mem.stats.d2h_bytes == 64
        assert mem.stats.d2h_count == 1

    def test_copy_back_of_nothing_is_not_a_transfer(self):
        mem = DeviceMemory()
        assert mem.copy_back(0.0) == 0.0
        assert mem.stats.d2h_count == 0

    def test_stale_fraction_defaults(self):
        mem = DeviceMemory()
        alloc = mem.alloc("a", (4,), np.float64)
        assert alloc.stale_fraction == 1.0


def vec_plan():
    """``copyin(a) copyout(c) create(t)``, all whole-array."""
    return DataPlan(
        copyin=[DataMove("a", "in")],
        copyout=[DataMove("c", "out")],
        create=[DataMove("t", "create")],
    )


def vec_arrays():
    return {"a": np.zeros(16), "c": np.zeros(8), "t": np.zeros(4)}


class TestStage:
    def test_first_touch_copies_in_and_allocates(self):
        mem = DeviceMemory()
        b_in, b_out = mem.stage(vec_plan(), vec_arrays(), {})
        assert (b_in, b_out) == (128, 64)
        assert set(mem.allocations) == {"a", "c", "t"}
        assert mem.allocations["a"].valid
        assert mem.allocations["a"].stale_fraction == 0.0
        assert mem.stats.h2d_count == 1

    def test_resident_copy_moves_only_the_stale_fraction(self):
        mem = DeviceMemory()
        mem.stage(vec_plan(), vec_arrays(), {})
        mem.allocations["a"].stale_fraction = 0.25
        b_in, _ = mem.stage(vec_plan(), vec_arrays(), {})
        assert b_in == 32
        assert mem.allocations["a"].stale_fraction == 0.0
        assert mem.stats.h2d_bytes == 128 + 32

    def test_fresh_resident_copy_moves_nothing(self):
        mem = DeviceMemory()
        mem.stage(vec_plan(), vec_arrays(), {})
        b_in, _ = mem.stage(vec_plan(), vec_arrays(), {})
        assert b_in == 0
        assert mem.stats.h2d_count == 1  # no zero-byte refresh counted


def targeted(site, device):
    faults = FaultRuntime()
    faults.install(
        FaultSchedule([SiteRule(site, at=frozenset({1}), device=device)])
    )
    return faults


class TestDeviceProbes:
    """Every staging and copy-back transfer probes with its device id."""

    @pytest.mark.parametrize("device_id", [0, 2])
    def test_refresh_probes_with_device_id(self, device_id):
        mem = DeviceMemory(device_id=device_id)
        mem.stage(vec_plan(), vec_arrays(), {})
        mem.allocations["a"].stale_fraction = 1.0
        mem.faults = targeted("transfer.h2d", device_id)
        b_in, _ = mem.stage(vec_plan(), vec_arrays(), {})
        assert b_in == 2 * 128  # the refresh plus one re-issue
        inject = mem.faults.recorder.events[0]
        assert inject.detail == f"probe#1 d{device_id}"

    @pytest.mark.parametrize("device_id", [0, 2])
    def test_copy_back_probes_with_device_id(self, device_id):
        mem = DeviceMemory(
            faults=targeted("transfer.d2h", device_id), device_id=device_id
        )
        assert mem.copy_back(64) == 128
        assert mem.faults.recorder.events[0].detail == (
            f"probe#1 d{device_id}"
        )

    def test_other_devices_target_does_not_fire(self):
        mem = DeviceMemory(faults=targeted("transfer.d2h", 1), device_id=0)
        assert mem.copy_back(64) == 64
        assert mem.faults.recorder.events == []
