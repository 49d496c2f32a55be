"""GPU device launch tests."""

import numpy as np
import pytest

from repro.errors import LaunchError, MemoryFault
from repro.gpusim.device import GpuDevice
from repro.ir import ArrayStorage
from repro.runtime.costmodel import CostModel
from repro.runtime.platform import paper_platform

from ..conftest import lowered

SRC = """
class T { static void f(double[] a, double[] b, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) { b[i] = a[i] + 1.0; }
} }
"""


@pytest.fixture
def device():
    platform = paper_platform()
    return GpuDevice(platform.gpu, CostModel(platform))


@pytest.fixture
def fn():
    _, f = lowered(SRC)
    return f


def make_storage(n=64):
    return ArrayStorage({"a": np.arange(n, dtype=np.float64), "b": np.zeros(n)})


class TestLaunch:
    def test_direct_launch_writes(self, device, fn):
        storage = make_storage()
        device.memory.copyin("a", (64,), np.float64)
        device.memory.alloc("b", (64,), np.float64)
        res = device.launch(fn, range(64), {"n": 64}, storage, mode="direct")
        assert res.vectorized  # straight-line body uses the fast path
        assert np.array_equal(storage.arrays["b"], storage.arrays["a"] + 1)
        assert res.sim_time_s > 0
        assert device.memory.allocations["b"].valid

    def test_buffered_launch_leaves_memory(self, device, fn):
        storage = make_storage()
        device.memory.copyin("a", (64,), np.float64)
        device.memory.alloc("b", (64,), np.float64)
        res = device.launch(fn, range(64), {"n": 64}, storage, mode="buffered")
        assert np.array_equal(storage.arrays["b"], np.zeros(64))
        res.lanes.commit(storage, range(64))
        assert np.array_equal(storage.arrays["b"], storage.arrays["a"] + 1)

    def test_missing_allocation_faults(self, device, fn):
        storage = make_storage()
        with pytest.raises(MemoryFault):
            device.launch(fn, range(4), {"n": 64}, storage)

    def test_read_only_array_needs_valid_copy(self, device, fn):
        storage = make_storage()
        device.memory.alloc("a", (64,), np.float64)  # allocated, not copied
        device.memory.alloc("b", (64,), np.float64)
        with pytest.raises(MemoryFault, match="copyin"):
            device.launch(fn, range(4), {"n": 64}, storage)

    def test_check_allocations_false_skips(self, device, fn):
        storage = make_storage()
        res = device.launch(
            fn, range(8), {"n": 64}, storage, mode="buffered",
            check_allocations=False,
        )
        assert len(res.lanes) == 8

    def test_unknown_mode(self, device, fn):
        storage = make_storage()
        with pytest.raises(LaunchError):
            device.launch(
                fn, range(4), {"n": 64}, storage, mode="warp-speed",
                check_allocations=False,
            )

    def test_commit_order_last_writer_wins(self, device):
        src = """
        class T { static void f(double[] out, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) { out[0] = (double) i; }
        } }
        """
        _, f2 = lowered(src)
        storage = ArrayStorage({"out": np.zeros(1)})
        res = device.launch(
            f2, range(10), {"n": 10}, storage, mode="buffered",
            check_allocations=False,
        )
        res.lanes.commit(storage, range(10))
        assert storage.arrays["out"][0] == 9.0

    def test_coalescing_slows_kernel(self, device, fn):
        storage = make_storage()
        fast = device.launch(
            fn, range(64), {"n": 64}, storage, mode="buffered",
            coalescing=1.0, check_allocations=False,
        )
        storage2 = make_storage()
        slow = device.launch(
            fn, range(64), {"n": 64}, storage2, mode="buffered",
            coalescing=0.1, check_allocations=False,
        )
        assert slow.sim_time_s >= fast.sim_time_s


class TestBlockSize:
    def test_padding_factor(self, device):
        assert device._block_padding(None) == 1.0
        assert device._block_padding(256) == 1.0
        assert device._block_padding(48) == 64 / 48
        assert device._block_padding(1) == 32.0

    def test_invalid_block_size(self, device, fn):
        storage = make_storage()
        with pytest.raises(LaunchError):
            device.launch(
                fn, range(4), {"n": 64}, storage, block_size=0,
                check_allocations=False,
            )

    def test_padded_block_slows_kernel(self, device, fn):
        storage = make_storage()
        aligned = device.launch(
            fn, range(64), {"n": 64}, storage, mode="buffered",
            check_allocations=False, block_size=256,
        )
        storage2 = make_storage()
        padded = device.launch(
            fn, range(64), {"n": 64}, storage2, mode="buffered",
            check_allocations=False, block_size=40,
        )
        assert padded.divergence > aligned.divergence
        assert padded.sim_time_s >= aligned.sim_time_s
