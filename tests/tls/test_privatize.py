"""Privatization tests: buffered path, renamed fast path, legality."""

import numpy as np
import pytest

from repro.errors import LoweringError, SpeculationError
from repro.gpusim.device import GpuDevice
from repro.ir import ArrayStorage, run_sequential
from repro.profiler.trace import profile_loop
from repro.runtime.costmodel import CostModel
from repro.runtime.platform import paper_platform
from repro.tls.privatize import _try_renamed, run_privatized
from repro.tls.rename import PRIV_BASE, priv_name, rename_privatized

from ..conftest import SCRATCH_SRC, SEIDEL_SRC, lowered, register_all

# straight-line scratch kernel (renamable)
STRAIGHT_SRC = """
class T { static void f(double[] src, double[] dst, double[] tmp, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    tmp[(i * 2) % 2] = src[i] * 2.0;
    tmp[(i * 2 + 1) % 2] = src[i] + 1.0;
    dst[i] = tmp[(i * 2) % 2] + tmp[(i * 2 + 1) % 2];
  }
} }
"""


@pytest.fixture
def device():
    platform = paper_platform()
    return GpuDevice(platform.gpu, CostModel(platform))


def scratch_arrays(n=96):
    rng = np.random.default_rng(3)
    return {"src": rng.standard_normal(n), "dst": np.zeros(n), "tmp": np.zeros(2)}


def expected_for(fn, arrays, n):
    storage = ArrayStorage({k: v.copy() for k, v in arrays.items()})
    run_sequential(fn, storage, {"n": n}, 0, n)
    return storage.snapshot()


class TestBufferedPath:
    def test_matches_sequential(self, device):
        _, fn = lowered(STRAIGHT_SRC)
        n = 96
        arrays = scratch_arrays(n)
        expected = expected_for(fn, arrays, n)
        storage = ArrayStorage({k: v.copy() for k, v in arrays.items()})
        register_all(device, storage)
        res = run_privatized(device, fn, range(n), {"n": n}, storage)
        assert not res.renamed  # no profile -> buffered path
        for name in expected:
            assert np.array_equal(storage.arrays[name], expected[name]), name
        assert res.cells_committed > 0

    def test_td_loop_rejected(self, device):
        _, fn = lowered(SEIDEL_SRC)
        n = 32
        storage = ArrayStorage({"x": np.ones(n), "b": np.zeros(n)})
        register_all(device, storage)
        with pytest.raises(SpeculationError, match="true dependence"):
            run_privatized(device, fn, range(1, n - 1), {"n": n}, storage)


class TestRenamedFastPath:
    def _profiled(self, device, fn, arrays, n):
        storage = ArrayStorage({k: v.copy() for k, v in arrays.items()})
        return profile_loop(device, fn, range(n), {"n": n}, storage).profile

    def test_fast_path_taken_and_correct(self, device):
        _, fn = lowered(STRAIGHT_SRC)
        n = 96
        arrays = scratch_arrays(n)
        profile = self._profiled(device, fn, arrays, n)
        assert "tmp" in profile.privatizable_arrays

        expected = expected_for(fn, arrays, n)
        storage = ArrayStorage({k: v.copy() for k, v in arrays.items()})
        register_all(device, storage)
        res = run_privatized(
            device, fn, range(n), {"n": n}, storage, profile=profile
        )
        assert res.renamed
        for name in expected:
            assert np.array_equal(storage.arrays[name], expected[name]), name

    def test_private_arrays_cleaned_up(self, device):
        _, fn = lowered(STRAIGHT_SRC)
        n = 64
        arrays = scratch_arrays(n)
        profile = self._profiled(device, fn, arrays, n)
        storage = ArrayStorage({k: v.copy() for k, v in arrays.items()})
        register_all(device, storage)
        run_privatized(device, fn, range(n), {"n": n}, storage, profile=profile)
        assert priv_name("tmp") not in storage.arrays

    @pytest.mark.parametrize("seq", [range, lambda lo, hi: [*range(lo, hi)]],
                             ids=["range", "list"])
    def test_contiguous_sequence_takes_renamed_path(self, device, seq):
        # the contiguity test reads any sequence type: a range whose
        # lanes are index - base takes the renamed path as the list does
        _, fn = lowered(STRAIGHT_SRC)
        n = 64
        arrays = scratch_arrays(n)
        profile = self._profiled(device, fn, arrays, n)
        expected = ArrayStorage({k: v.copy() for k, v in arrays.items()})
        run_sequential(fn, expected, {"n": n}, 8, n)
        storage = ArrayStorage({k: v.copy() for k, v in arrays.items()})
        register_all(device, storage)
        res = _try_renamed(
            device, fn, seq(8, n), {"n": n}, storage, 1.0, 8.0, profile
        )
        assert res is not None and res.renamed
        for name, arr in expected.arrays.items():
            assert np.array_equal(storage.arrays[name], arr), name

    @pytest.mark.parametrize("indices", [range(0, 64, 2), range(63, -1, -1)],
                             ids=["strided", "descending"])
    def test_non_unit_step_range_falls_back(self, device, indices):
        _, fn = lowered(STRAIGHT_SRC)
        n = 64
        arrays = scratch_arrays(n)
        profile = self._profiled(device, fn, arrays, n)
        storage = ArrayStorage({k: v.copy() for k, v in arrays.items()})
        register_all(device, storage)
        assert _try_renamed(
            device, fn, indices, {"n": n}, storage, 1.0, 8.0, profile
        ) is None

    def test_non_contiguous_indices_fall_back(self, device):
        _, fn = lowered(STRAIGHT_SRC)
        n = 64
        arrays = scratch_arrays(n)
        profile = self._profiled(device, fn, arrays, n)
        storage = ArrayStorage({k: v.copy() for k, v in arrays.items()})
        register_all(device, storage)
        res = run_privatized(
            device, fn, list(range(0, n, 2)), {"n": n}, storage,
            profile=profile, verify_no_td=False,
        )
        assert not res.renamed

    def test_control_flow_falls_back(self, device):
        src = """
        class T { static void f(double[] src, double[] dst, double[] tmp, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) {
            tmp[(i * 2) % 2] = src[i];
            if (src[i] > 0.0) { dst[i] = tmp[(i * 2) % 2]; }
            else { dst[i] = -tmp[(i * 2) % 2]; }
          }
        } }
        """
        _, fn = lowered(src)
        n = 64
        arrays = scratch_arrays(n)
        profile = self._profiled(device, fn, arrays, n)
        expected = expected_for(fn, arrays, n)
        storage = ArrayStorage({k: v.copy() for k, v in arrays.items()})
        register_all(device, storage)
        res = run_privatized(
            device, fn, range(n), {"n": n}, storage, profile=profile
        )
        assert not res.renamed
        for name in expected:
            assert np.array_equal(storage.arrays[name], expected[name]), name


class TestRenameTransform:
    def test_rename_structure(self):
        _, fn = lowered(STRAIGHT_SRC)
        renamed = rename_privatized(fn, {"tmp"})
        arrays = {a.name: a for a in renamed.arrays}
        assert priv_name("tmp") in arrays
        assert arrays[priv_name("tmp")].dims == 2
        assert any(s.name == PRIV_BASE for s in renamed.scalars)
        renamed.validate()

    def test_rename_noop_for_empty_set(self):
        _, fn = lowered(STRAIGHT_SRC)
        assert rename_privatized(fn, set()) is fn

    def test_rename_rejects_2d(self):
        src = """
        class T { static void f(double[][] M, double[] out, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) { M[0][0] = 1.0; out[i] = M[0][0]; }
        } }
        """
        _, fn = lowered(src)
        with pytest.raises(LoweringError, match="1-D"):
            rename_privatized(fn, {"M"})

    def test_rename_rejects_unknown(self):
        _, fn = lowered(STRAIGHT_SRC)
        with pytest.raises(LoweringError, match="unknown"):
            rename_privatized(fn, {"ghost"})
