"""The lock-step tier: masks, faults, conflicts, widths and layouts.

Every lane of a launch runs at once under an active-lane mask
(:mod:`repro.ir.vectorizer`, :mod:`repro.ir.specvec`).  These directed
cases pin what the random differential suites only reach by chance:
masked-off lanes never fault, an active lane's fault and a conflict
between lanes undo the launch and rerun it lane by lane (the
interpreter's exact error, the sequential result), loops whose trip
count differs per lane, 2-D and non-C-contiguous arrays, and the
dispatcher's width rule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MemoryFault
from repro.ir import (
    ArrayStorage,
    FuelExhausted,
    IRBuilder,
    JType,
    run_sequential,
)
from repro.ir.native import KernelCache, KernelDispatcher, dispatch
from repro.ir.specvec import VectorizedSpecKernel
from repro.ir.vectorizer import LaneConflict, VectorizedKernel
from repro.obs import Instrumentation

from ..conftest import lowered
from .test_native_codegen import _interp, assert_same_log

#: masked-off lanes divide by zero and index out of bounds
GUARDED = """
class T { static void f(int[] x, int[] d, int[] idx, double[] v,
                        int[] q, double[] o, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    if (d[i] != 0) { q[i] = x[i] / d[i] + x[i] % d[i]; }
    if (idx[i] >= 0 && idx[i] < n) { o[i] = v[idx[i]]; } else { o[i] = -1.0; }
  }
} }
"""

#: lane i loops c[i] times: per-lane trip counts
TRIPS = """
class T { static void f(int[] c, double[] o, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    double s = 0.0;
    for (int k = 0; k < c[i]; k++) {
      if (k % 3 == 0) { s = s + 1.5; } else { s = s * 0.5; }
    }
    o[i] = s;
  }
} }
"""

#: lane i reads the cell lane i-1 writes (RAW across lanes)
RAW = """
class T { static void f(double[] a, int n) {
  /* acc parallel */
  for (int i = 1; i < n; i++) {
    if (a[i] >= 0.0) { a[i] = a[i - 1] + 1.0; } else { a[i] = 0.0; }
  }
} }
"""

#: every lane writes one of two cells (WAW across lanes)
WAW = """
class T { static void f(double[] a, double[] b, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    if (b[i] > 0.0) { a[i % 2] = b[i]; } else { a[i % 2] = -b[i]; }
  }
} }
"""

#: a 2-D array, read and written per lane
MATRIX = """
class T { static void f(double[][] m, int[] s, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    int r = i % 3;
    if (s[i] > 0) { m[r][i] = m[r][i] * 2.0 + (double) s[i]; }
    else { m[r][i] = m[(r + 1) % 3][i]; }
    s[i] = s[i] * 3 - 1;
  }
} }
"""

#: lanes store, read back and store again a few cells they share
SHARED = """
class T { static void f(double[] t, double[] o, int[] k, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    t[k[i]] = o[i] + 1.0;
    if (o[i] > 0.0) { t[(k[i] + 1) % 4] = t[k[i]] * 2.0; }
    o[i] = t[k[i]] + t[(k[i] + 1) % 4] + t[3];
    if (o[i] > 1.0) { t[k[i]] = o[i]; }
  }
} }
"""

#: a narrow launch's lanes run one inner iteration each; ``rows`` may
#: send two lanes to one row of ``c``
COLLAPSIBLE = """
class T { static void f(double[][] a, double[][] b, double[][] c,
                        int[] rows, int m) {
  /* acc parallel */
  for (int i = 0; i < 4; i++) {
    for (int j = 0; j < m; j++) {
      double acc = 0.0;
      for (int k = 0; k < m; k++) { acc += a[i][k] * b[k][j]; }
      int r = rows[i];
      c[r][j] = acc - 0.25 * c[r][j];
    }
  }
} }
"""

WIDE = dispatch.LOCKSTEP_MIN_LANES + 8


def _guarded(n):
    rng = np.random.default_rng(3)
    d = rng.integers(-3, 4, n).astype(np.int32)
    idx = rng.integers(-5, n + 5, n).astype(np.int32)
    d[1] = 0
    idx[2], idx[3] = -4, n + 2
    return {
        "x": rng.integers(-100, 100, n).astype(np.int32),
        "d": d,
        "idx": idx,
        "v": rng.standard_normal(n),
        "q": np.zeros(n, dtype=np.int32),
        "o": np.zeros(n),
    }


def _copy(arrays):
    return ArrayStorage({k: v.copy() for k, v in arrays.items()})


def _same(s1, s2):
    for name, arr in s1.arrays.items():
        assert arr.dtype == s2.arrays[name].dtype, name
        assert arr.tobytes() == s2.arrays[name].tobytes(), name


def _dispatcher(**kw):
    obs = Instrumentation.recording()
    return KernelDispatcher(cache=KernelCache(**kw), obs=obs), obs


def _counters(obs):
    return obs.metrics.to_dict()["counters"]


class TestMasks:
    @pytest.mark.parametrize("n", [8, WIDE])
    def test_masked_off_lanes_never_fault(self, n):
        _, fn = lowered(GUARDED)
        arrays = _guarded(n)
        assert (arrays["d"] == 0).any() and (arrays["idx"] < 0).any()
        env = {"n": n}
        s1, s2, s3 = _copy(arrays), _copy(arrays), _copy(arrays)
        c1 = run_sequential(fn, s1, env, 0, n)
        per_lane = []
        c2 = VectorizedKernel(fn).run_range(s2, env, np.arange(n), per_lane)
        assert c1 == c2
        _same(s1, s2)
        pl, c3, lanes, err = _interp(fn, "buffered", range(n), env, s3)
        assert err is None and per_lane == pl
        c4, cols = VectorizedSpecKernel(fn).run_buffered(
            _copy(arrays), env, np.arange(n)
        )
        assert c3 == c4
        assert_same_log(cols, lanes, list(range(n)), s3)

    @pytest.mark.parametrize("n", [8, WIDE])
    def test_trip_count_differs_per_lane(self, n):
        _, fn = lowered(TRIPS)
        c = (np.arange(n, dtype=np.int32) * 7) % 11
        arrays = {"c": c, "o": np.zeros(n)}
        s1, s2 = _copy(arrays), _copy(arrays)
        c1 = run_sequential(fn, s1, {"n": n}, 0, n)
        per_lane = []
        c2 = VectorizedKernel(fn).run_range(
            s2, {"n": n}, np.arange(n), per_lane
        )
        assert c1 == c2
        _same(s1, s2)
        assert len(set(per_lane)) > 1  # the lanes diverged


    def test_kernel_writes_a_scalar_register(self):
        # a scalar parameter's register, rewritten under a partial mask
        b = IRBuilder("sw")
        i = b.declare_index("i")
        n = b.declare_scalar("n", JType.INT)
        b.declare_array("o", JType.INT, 1)
        entry, bump, done = (b.new_block(k) for k in ("e", "bump", "done"))
        b.set_insert(entry)
        odd = b.bin("&", i, b.const(1, JType.INT), JType.INT)
        b.cbr(b.bin("==", odd, b.const(1, JType.INT), JType.BOOL), bump, done)
        b.set_insert(bump)
        b.mov(n, b.bin("*", n, i, JType.INT))
        b.br(done)
        b.set_insert(done)
        b.store("o", (i,), n)
        b.ret()
        fn = b.finish()
        s1 = ArrayStorage({"o": np.zeros(WIDE, dtype=np.int32)})
        s2 = ArrayStorage({"o": np.zeros(WIDE, dtype=np.int32)})
        c1 = run_sequential(fn, s1, {"n": 7}, 0, WIDE)
        c2 = VectorizedKernel(fn).run_range(s2, {"n": 7}, np.arange(WIDE))
        assert c1 == c2
        _same(s1, s2)
        assert s2.arrays["o"][:4].tolist() == [7, 7, 7, 21]


class TestFaults:
    def test_active_lane_fault_is_the_interpreters(self):
        _, fn = lowered(GUARDED.replace("if (d[i] != 0) ", ""))
        arrays = _guarded(WIDE)
        arrays["d"][:] = 1
        arrays["d"][WIDE - 20] = 0  # one active lane divides by zero
        env = {"n": WIDE}
        s1, s2 = _copy(arrays), _copy(arrays)
        _pl, _c, _aux, want = _interp(fn, "direct", range(WIDE), env, s1)
        assert isinstance(want, ZeroDivisionError)
        d, obs = _dispatcher()
        with pytest.raises(ZeroDivisionError) as got:
            d.run_direct(fn, list(range(WIDE)), env, s2, parallel=True)
        assert str(got.value) == str(want)
        _same(s1, s2)  # the lanes before the fault, exactly as stored
        counters = _counters(obs)
        assert counters["kernel.tier.lockstep"] == 1
        assert counters["kernel.tier.lockstep.fallbacks"] == 1

    @pytest.mark.parametrize("flavor", ["direct", "buffered"])
    def test_out_of_bounds_active_lane(self, flavor):
        _, fn = lowered(GUARDED.replace("idx[i] >= 0 && idx[i] < n", "true"))
        arrays = _guarded(WIDE)
        arrays["d"][:] = 1
        env = {"n": WIDE}
        s1, s2 = _copy(arrays), _copy(arrays)
        _pl, _c, _aux, want = _interp(fn, flavor, range(WIDE), env, s1)
        assert isinstance(want, MemoryFault)
        d, _obs = _dispatcher()
        with pytest.raises(MemoryFault) as got:
            if flavor == "direct":
                d.run_direct(fn, list(range(WIDE)), env, s2, parallel=True)
            else:
                d.run_buffered(fn, list(range(WIDE)), env, s2)
        assert str(got.value) == str(want)
        _same(s1, s2)

    def test_engine_undoes_a_faulted_launch(self):
        _, fn = lowered(GUARDED.replace("idx[i] >= 0 && idx[i] < n", "true"))
        arrays = _guarded(WIDE)
        arrays["d"][:] = 1
        storage = _copy(arrays)
        with pytest.raises(MemoryFault):
            VectorizedKernel(fn).run_range(
                storage, {"n": WIDE}, np.arange(WIDE)
            )
        _same(storage, _copy(arrays))

    @pytest.mark.parametrize("flavor", ["direct", "buffered"])
    def test_fuel_exhaustion(self, flavor):
        _, fn = lowered(TRIPS)
        c = np.full(WIDE, 2, dtype=np.int32)
        c[40] = 1000  # one lane runs long
        arrays = {"c": c, "o": np.zeros(WIDE)}
        env = {"n": WIDE}
        s1, s2 = _copy(arrays), _copy(arrays)
        _pl, c1, _aux, want = _interp(
            fn, flavor, range(WIDE), env, s1, fuel=500
        )
        assert isinstance(want, FuelExhausted)
        lockstep = (VectorizedKernel if flavor == "direct"
                    else VectorizedSpecKernel)(fn, 500)
        with pytest.raises(FuelExhausted):  # the engine alone
            run = getattr(lockstep, "run_range", None) or lockstep.run_buffered
            run(_copy(arrays), env, np.arange(WIDE))
        d, obs = _dispatcher(fuel=500)
        with pytest.raises(FuelExhausted) as got:
            if flavor == "direct":
                d.run_direct(fn, list(range(WIDE)), env, s2, parallel=True)
            else:
                d.run_buffered(fn, list(range(WIDE)), env, s2)
        assert str(got.value) == str(want)
        assert d.take_counts(fn) == c1  # the rerun's partial counts
        _same(s1, s2)
        assert _counters(obs)["kernel.tier.lockstep.fallbacks"] == 1


class TestConflicts:
    @pytest.mark.parametrize("src", [RAW, WAW], ids=["raw", "waw"])
    def test_conflicting_lanes_rerun_sequentially(self, src):
        _, fn = lowered(src)
        rng = np.random.default_rng(5)
        arrays = {"a": rng.standard_normal(WIDE + 1) + 0.5,
                  "b": rng.standard_normal(WIDE + 1)}
        env = {"n": WIDE}
        lo = 1 if src is RAW else 0
        s1, s2, s3 = _copy(arrays), _copy(arrays), _copy(arrays)
        c1 = run_sequential(fn, s1, env, lo, WIDE)
        with pytest.raises(LaneConflict):
            VectorizedKernel(fn).run_range(s3, env, np.arange(lo, WIDE))
        _same(s3, _copy(arrays))  # undone
        d, obs = _dispatcher()
        d.run_direct(fn, list(range(lo, WIDE)), env, s2, parallel=True)
        assert d.take_counts(fn) == c1
        _same(s1, s2)
        counters = _counters(obs)
        assert counters["kernel.tier.lockstep"] == 1
        assert counters["kernel.tier.lockstep.fallbacks"] == 1

    def test_arrays_sharing_memory_conflict(self):
        _, fn = lowered(WAW.replace("a[i % 2]", "a[i]"))
        buf = np.linspace(-1.0, 1.0, WIDE + 1)
        storage = ArrayStorage({"a": buf[1:], "b": buf[:-1]})
        with pytest.raises(LaneConflict, match="shares memory"):
            VectorizedKernel(fn).run_range(
                storage, {"n": WIDE}, np.arange(WIDE)
            )
        expect = np.linspace(-1.0, 1.0, WIDE + 1)
        s1 = ArrayStorage({"a": expect[1:], "b": expect[:-1]})
        run_sequential(fn, s1, {"n": WIDE}, 0, WIDE)
        d, _obs = _dispatcher()
        d.run_direct(fn, list(range(WIDE)), {"n": WIDE}, storage,
                     parallel=True)
        assert buf.tobytes() == expect.tobytes()
        one = np.zeros(WIDE + 1)  # one array bound under both names
        with pytest.raises(LaneConflict, match="shares memory"):
            VectorizedKernel(fn).run_range(
                ArrayStorage({"a": one, "b": one}), {"n": WIDE},
                np.arange(WIDE),
            )

    def test_own_cells_read_and_written_do_not_conflict(self):
        _, fn = lowered(MATRIX)
        m = np.arange(3.0 * WIDE).reshape(3, WIDE) - 50.0
        arrays = {"m": m, "s": np.arange(-60, WIDE - 60, dtype=np.int32)}
        s1, s2 = _copy(arrays), _copy(arrays)
        c1 = run_sequential(fn, s1, {"n": WIDE}, 0, WIDE)
        c2 = VectorizedKernel(fn).run_range(s2, {"n": WIDE}, np.arange(WIDE))
        assert c1 == c2
        _same(s1, s2)


class TestSharedBuffers:
    @pytest.mark.parametrize("n", [5, WIDE])
    def test_cells_several_lanes_buffer_match_the_interpreter(self, n):
        """Stores to cells other lanes buffered, loads of such cells
        between them, and the final buffers and log columns."""
        _, fn = lowered(SHARED)
        rng = np.random.default_rng(9)
        arrays = {"t": rng.standard_normal(4), "o": rng.standard_normal(n),
                  "k": rng.integers(0, 4, n).astype(np.int32)}
        env = {"n": n}
        s1, s2 = _copy(arrays), _copy(arrays)
        pl1, c1, lanes1, e1 = _interp(fn, "buffered", range(n), env, s1)
        per_lane = []
        c2, cols = VectorizedSpecKernel(fn).run_buffered(
            s2, env, range(n), per_lane
        )
        assert e1 is None and pl1 == per_lane and c1 == c2
        assert_same_log(cols, lanes1, list(range(n)), s1)
        _same(s1, s2)


class TestLayouts:
    @pytest.mark.parametrize("flavor", ["direct", "buffered"])
    def test_fortran_and_strided_arrays(self, flavor):
        _, fn = lowered(MATRIX)

        def storage():
            m = np.asfortranarray(
                np.arange(3.0 * WIDE).reshape(3, WIDE) - 50.0
            )
            s = np.arange(-120, 2 * WIDE - 120, dtype=np.int32)[::2]
            return ArrayStorage({"m": m, "s": s})

        s1, s2 = storage(), storage()
        assert not s2.arrays["m"].flags.c_contiguous
        assert not s2.arrays["s"].flags.c_contiguous
        env = {"n": WIDE}
        pl, c1, lanes, err = _interp(fn, flavor, range(WIDE), env, s1)
        assert err is None
        if flavor == "direct":
            per_lane = []
            c2 = VectorizedKernel(fn).run_range(
                s2, env, np.arange(WIDE), per_lane
            )
        else:
            per_lane = []
            c2, cols = VectorizedSpecKernel(fn).run_buffered(
                s2, env, np.arange(WIDE), per_lane
            )
            assert_same_log(cols, lanes, list(range(WIDE)), s1)
        assert c1 == c2 and pl == per_lane
        _same(s1, s2)


class TestWidthRule:
    @pytest.mark.parametrize("native", [True, False])
    def test_tier_per_launch(self, native):
        _, branchy = lowered(TRIPS)
        straight = lowered("""
        class T { static void f(double[] o, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) { o[i] = (double) i * 0.5; }
        } }
        """)[1]
        d, obs = _dispatcher()
        d.native = native
        n = dispatch.LOCKSTEP_MIN_LANES
        arrays = {"c": np.full(n, 2, dtype=np.int32), "o": np.zeros(n)}

        def tiers(fn, k, parallel=True, flavor="direct"):
            before = dict(_counters(obs))
            s = _copy({"c": arrays["c"][:k], "o": arrays["o"][:k]})
            if flavor == "buffered":
                d.run_buffered(fn, list(range(k)), {"n": k}, s)
            else:
                d.run_direct(fn, list(range(k)), {"n": k}, s,
                             parallel=parallel)
            after = _counters(obs)
            return {t for t in ("interp", "src", "lockstep")
                    if after.get(f"kernel.tier.{t}", 0)
                    != before.get(f"kernel.tier.{t}", 0)}

        seq = "src" if native else "interp"
        assert tiers(branchy, n - 1) == {seq}
        assert tiers(branchy, n) == {"lockstep" if native else "interp"}
        assert tiers(branchy, n, parallel=False) == {seq}
        assert tiers(straight, 1) == {"lockstep"}
        assert tiers(straight, n, parallel=False) == {seq}
        assert tiers(branchy, 3, flavor="buffered") == {
            "lockstep" if native else "interp"
        }


class TestCollapse:
    """Narrow launches of a kernel whose lane body is one independent
    counted loop run one lane per (index, iteration)."""

    def test_collapse_test_on_the_workloads(self):
        from repro.api import Japonica
        from repro.ir.native.codegen import collapse
        from repro.workloads import BY_NAME

        def verdicts(name):
            unit = Japonica().compile(BY_NAME[name].source).unit
            return [collapse(tl.fn) is not None
                    for mt in unit.methods.values() for tl in mt.loops]

        assert verdicts("GEMM") == [True]
        assert verdicts("2MM") == [True, True]
        # both reduce into x[i] along j: acc is carried across j
        assert not any(verdicts("MVT")) and not any(verdicts("BICG"))

    @staticmethod
    def _arrays(m, rows):
        rng = np.random.default_rng(11)
        return {"a": rng.standard_normal((4, m)),
                "b": rng.standard_normal((m, m)),
                "c": rng.standard_normal((4, m)),
                "rows": np.array(rows, dtype=np.int32)}

    @pytest.mark.parametrize("rows,fallbacks", [
        ([0, 1, 2, 3], 0), ([0, 1, 1, 3], 1),
    ], ids=["own-rows", "shared-row"])
    def test_a_conflict_reruns_lane_by_lane(self, rows, fallbacks):
        _, fn = lowered(COLLAPSIBLE)
        m = dispatch.LOCKSTEP_MIN_LANES // 4
        arrays, env = self._arrays(m, rows), {"m": m}
        s1, s2, s3 = _copy(arrays), _copy(arrays), _copy(arrays)
        pl1, c1, _, e1 = _interp(fn, "direct", range(4), env, s1)
        d, obs = _dispatcher()
        pl2 = d.run_direct(fn, list(range(4)), env, s2, parallel=True)
        src, _obs = _dispatcher()
        src.run_direct(fn, list(range(4)), env, s3)  # not parallel: src
        assert e1 is None and pl1 == pl2 and d.take_counts(fn) == c1
        _same(s1, s2)
        _same(s2, s3)
        counters = _counters(obs)
        assert counters["kernel.tier.lockstep"] == 1
        assert counters.get("kernel.tier.lockstep.fallbacks", 0) == fallbacks

    @pytest.mark.parametrize("native", [True, False])
    def test_width_is_the_collapsed_lane_count(self, native):
        _, fn = lowered(COLLAPSIBLE)
        lanes = dispatch.LOCKSTEP_MIN_LANES

        def tier(m):
            d, obs = _dispatcher()
            d.native = native
            s = _copy(self._arrays(max(m, 1), [0, 1, 2, 3]))
            d.run_direct(fn, list(range(4)), {"m": m}, s, parallel=True)
            return {k.split(".")[-1] for k in _counters(obs)
                    if k.startswith("kernel.tier.")
                    and not k.endswith("iterations")}

        seq = "src" if native else "interp"
        assert tier(lanes // 4) == {"lockstep" if native else "interp"}
        assert tier(lanes // 4 - 1) == {seq}  # 4 x 31 lanes: too few
        assert tier(0) == {seq}  # a zero trip does not collapse
