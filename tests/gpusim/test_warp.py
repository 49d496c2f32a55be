"""Warp spans and divergence tests."""

from repro.gpusim.warp import iter_warp_spans


class TestPartition:
    def test_spans(self):
        spans = list(iter_warp_spans(70, 32))
        assert spans == [(0, 0, 32), (1, 32, 64), (2, 64, 70)]


class TestDivergence:
    def test_uniform_lanes_no_penalty(self):
        from repro.gpusim.warp import divergence_factor

        assert divergence_factor([7] * 96, 32) == 1.0

    def test_one_slow_lane_charges_whole_warp(self):
        from repro.gpusim.warp import divergence_factor

        lanes = [100] + [1] * 31
        factor = divergence_factor(lanes, 32)
        assert factor == (100 * 32) / (100 + 31)

    def test_cross_warp_imbalance_is_free(self):
        from repro.gpusim.warp import divergence_factor

        # warps are uniform internally; warp 0 slow, warp 1 fast: no penalty
        lanes = [100] * 32 + [1] * 32
        assert divergence_factor(lanes, 32) == 1.0

    def test_empty_launch(self):
        from repro.gpusim.warp import divergence_factor

        assert divergence_factor([], 32) == 1.0


def test_device_launch_measures_divergence():
    import numpy as np

    from repro.gpusim.device import GpuDevice
    from repro.ir import ArrayStorage
    from repro.runtime.costmodel import CostModel
    from repro.runtime.platform import paper_platform

    from ..conftest import lowered

    src = """
    class T { static void f(double[] a, int[] len, int n) {
      /* acc parallel */
      for (int i = 0; i < n; i++) {
        double s = 0.0;
        for (int k = 0; k < len[i]; k++) { s = s + 1.0; }
        a[i] = s;
      }
    } }
    """
    _, fn = lowered(src)
    platform = paper_platform()
    device = GpuDevice(platform.gpu, CostModel(platform))
    n = 64
    storage_uniform = ArrayStorage(
        {"a": np.zeros(n), "len": np.full(n, 8, dtype=np.int32)}
    )
    uniform = device.launch(
        fn, range(n), {"n": n}, storage_uniform, mode="buffered",
        check_allocations=False,
    )
    assert uniform.divergence == 1.0

    lens = np.full(n, 1, dtype=np.int32)
    lens[::32] = 64  # one long lane per warp
    storage_div = ArrayStorage({"a": np.zeros(n), "len": lens})
    divergent = device.launch(
        fn, range(n), {"n": n}, storage_div, mode="buffered",
        check_allocations=False,
    )
    assert divergent.divergence > 2.0
    # same *useful* instruction profile would run slower under divergence
    assert divergent.sim_time_s > 0
