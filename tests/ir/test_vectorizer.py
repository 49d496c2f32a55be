"""Lock-step direct executor tests: must match the scalar interpreter
exactly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import JaponicaError, MemoryFault
from repro.ir import (
    ArrayStorage,
    IRBuilder,
    JType,
    VectorizedKernel,
    run_sequential,
)

from ..conftest import lowered


def both_paths(src, arrays, env, n):
    """Run scalar and vector paths on copies; return both storages+counts."""
    _, fn = lowered(src)
    assert fn.is_straightline, "test kernel must be straight-line"
    st1 = ArrayStorage({k: v.copy() for k, v in arrays.items()})
    c1 = run_sequential(fn, st1, env, 0, n)
    st2 = ArrayStorage({k: v.copy() for k, v in arrays.items()})
    c2 = VectorizedKernel(fn).run_range(st2, env, np.arange(n))
    return st1, c1, st2, c2


def assert_equivalent(src, arrays, env, n):
    st1, c1, st2, c2 = both_paths(src, arrays, env, n)
    for name in arrays:
        got, want = st2.arrays[name], st1.arrays[name]
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name  # bitwise, NaN-safe
    assert c1 == c2
    return st2


DOUBLE_SRC = """
class T { static void f(double[] a, double[] b, double[] c, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    c[i] = a[i] * 2.5 - b[i] / (a[i] + 10.0) + Math.sqrt(Math.abs(b[i]));
  }
} }
"""

INT_SRC = """
class T { static void f(int[] x, int[] y, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    int w = x[i] * 1103515245 + 12345;
    w = (w ^ (w >>> 13)) & 0x7FFFFFFF;
    int q = w / 97;
    y[i] = w % 1000 - q % 13 + (w << 5) - (w >> 3) + ~x[i];
  }
} }
"""

LONG_SRC = """
class T { static void f(int[] x, int[] y, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    long m = (long) x[i] * 2654435761L % 65537L;
    y[i] = (int) m;
  }
} }
"""

GATHER_SRC = """
class T { static void f(double[] v, int[] idx, double[] out, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) { out[i] = v[idx[i]] * 2.0; }
} }
"""

TWO_D_SRC = """
class T { static void f(double[][] M, double[] row, int j, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) { row[i] = M[i][j] + M[0][i]; }
} }
"""


TRANSCENDENTAL_SRC = """
class T { static void f(double[] a, double[] b, double[] e, double[] l,
                        double[] t, double[] p, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    e[i] = Math.exp(a[i]);
    l[i] = Math.log(b[i]);
    t[i] = Math.tan(a[i]);
    p[i] = Math.pow(b[i], a[i]);
  }
} }
"""


class TestEquivalence:
    def test_transcendentals_bitwise(self):
        # numpy's exp/log/tan/pow are not libm bitwise on every lane
        rng = np.random.default_rng(6)
        n = 1000
        zeros = {k: np.zeros(n) for k in "eltp"}
        assert_equivalent(
            TRANSCENDENTAL_SRC,
            {"a": rng.uniform(-20, 20, n), "b": rng.uniform(0, 50, n),
             **zeros},
            {"n": n},
            n,
        )

    def test_double_kernel(self):
        rng = np.random.default_rng(1)
        n = 257
        assert_equivalent(
            DOUBLE_SRC,
            {
                "a": rng.standard_normal(n),
                "b": rng.standard_normal(n),
                "c": np.zeros(n),
            },
            {"n": n},
            n,
        )

    def test_int_kernel_bitwise(self):
        rng = np.random.default_rng(2)
        n = 500
        assert_equivalent(
            INT_SRC,
            {
                "x": rng.integers(-(2**31), 2**31, n, dtype=np.int32),
                "y": np.zeros(n, dtype=np.int32),
            },
            {"n": n},
            n,
        )

    def test_long_kernel(self):
        rng = np.random.default_rng(3)
        n = 300
        assert_equivalent(
            LONG_SRC,
            {
                "x": rng.integers(0, 2**31, n, dtype=np.int32),
                "y": np.zeros(n, dtype=np.int32),
            },
            {"n": n},
            n,
        )

    def test_gather(self):
        rng = np.random.default_rng(4)
        n = 64
        assert_equivalent(
            GATHER_SRC,
            {
                "v": rng.standard_normal(n),
                "idx": rng.integers(0, n, n, dtype=np.int32),
                "out": np.zeros(n),
            },
            {"n": n},
            n,
        )

    def test_2d_access(self):
        rng = np.random.default_rng(5)
        n = 16
        assert_equivalent(
            TWO_D_SRC,
            {"M": rng.standard_normal((n, n)), "row": np.zeros(n)},
            {"j": 3, "n": n},
            n,
        )

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 80))
    @settings(max_examples=25, deadline=None)
    def test_property_random_ints(self, seed, n):
        rng = np.random.default_rng(seed)
        assert_equivalent(
            INT_SRC,
            {
                "x": rng.integers(-(2**31), 2**31, n, dtype=np.int32),
                "y": np.zeros(n, dtype=np.int32),
            },
            {"n": n},
            n,
        )


class TestGuards:
    def test_control_flow_runs_lockstep(self):
        # control flow is not "vectorized" (straight-line) but runs all
        # lanes at once all the same, under the active-lane mask
        src = """
        class T { static void f(double[] a, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) {
            if (a[i] > 0.0) { a[i] = 0.0; }
          }
        } }
        """
        _, fn = lowered(src)
        assert not fn.is_straightline
        a = np.linspace(-2.0, 2.0, 9)
        st1, st2 = ArrayStorage({"a": a.copy()}), ArrayStorage({"a": a.copy()})
        c1 = run_sequential(fn, st1, {"n": 9}, 0, 9)
        c2 = VectorizedKernel(fn).run_range(st2, {"n": 9}, np.arange(9))
        assert c1 == c2
        assert st1.arrays["a"].tobytes() == st2.arrays["a"].tobytes()

    def test_unstructured_kernel_does_not_compile(self):
        # a loop entered at two blocks has no structured (lock-step) form
        b = IRBuilder("side")
        i = b.declare_index("i")
        b.declare_array("a", JType.INT, 1)
        entry, head, body, done = (
            b.new_block(name) for name in ("entry", "head", "body", "done")
        )
        b.set_insert(entry)
        b.cbr(b.bin("<", i, b.const(2, JType.INT), JType.BOOL), head, body)
        b.set_insert(head)
        b.cbr(b.bin("<", i, b.const(1, JType.INT), JType.BOOL), body, done)
        b.set_insert(body)
        b.br(head)
        b.set_insert(done)
        b.ret()
        with pytest.raises(JaponicaError, match="not structured"):
            VectorizedKernel(b.finish())

    def test_oob_gather_faults(self):
        _, fn = lowered(GATHER_SRC)
        storage = ArrayStorage(
            {
                "v": np.zeros(4),
                "idx": np.array([0, 1, 9, 2], dtype=np.int32),
                "out": np.zeros(4),
            }
        )
        with pytest.raises(MemoryFault):
            VectorizedKernel(fn).run_range(storage, {"n": 4}, np.arange(4))

    def test_empty_range(self):
        _, fn = lowered(DOUBLE_SRC)
        storage = ArrayStorage(
            {"a": np.zeros(4), "b": np.zeros(4), "c": np.zeros(4)}
        )
        counts = VectorizedKernel(fn).run_range(
            storage, {"n": 4}, np.arange(0)
        )
        assert counts.instructions == 0

    def test_int_div_by_zero_faults(self):
        src = """
        class T { static void f(int[] x, int[] y, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) { y[i] = 10 / x[i]; }
        } }
        """
        _, fn = lowered(src)
        storage = ArrayStorage(
            {
                "x": np.array([1, 0, 2], dtype=np.int32),
                "y": np.zeros(3, dtype=np.int32),
            }
        )
        with pytest.raises(ZeroDivisionError):
            VectorizedKernel(fn).run_range(storage, {"n": 3}, np.arange(3))


DIV_SRC = """
class T { static void f(TY[] x, TY[] d, TY[] q, TY[] r, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) { q[i] = x[i] / d[i]; r[i] = x[i] % d[i]; }
} }
"""

CAST_SRC = """
class T { static void f(double[] x, long[] y, int[] z, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) { y[i] = (long) x[i]; z[i] = (int) x[i]; }
} }
"""


class TestIntegerEdges:
    """Java's answers where numpy's defaults wrap or round differently."""

    @pytest.mark.parametrize(
        "ty,dtype", [("int", np.int32), ("long", np.int64)]
    )
    def test_min_value_division(self, ty, dtype):
        lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
        x = np.array([lo, lo, lo, lo, hi, -7, 7, lo + 1], dtype=dtype)
        d = np.array([7, -7, -1, 2, -1, 2, -2, -1], dtype=dtype)
        n = len(x)
        out = assert_equivalent(
            DIV_SRC.replace("TY", ty),
            {"x": x, "d": d, "q": np.zeros(n, dtype), "r": np.zeros(n, dtype)},
            {"n": n},
            n,
        )
        # Java truncates toward zero; MIN_VALUE / -1 wraps to MIN_VALUE
        q7 = -306783378 if ty == "int" else -1317624576693539401
        r7 = -2 if ty == "int" else -1
        assert out.arrays["q"].tolist() == [
            q7, -q7, lo, lo // 2, -hi, -3, -3, hi,
        ]
        assert out.arrays["r"].tolist() == [r7, r7, 0, 0, 0, -1, 1, 0]

    def test_saturating_long_and_int_casts(self):
        inf, nan = float("inf"), float("nan")
        x = np.array([2.0**63, inf, -inf, nan, 9.3e18, -9.3e18, 2.0**31,
                      -1.5, 1.5, -(2.0**63)])
        n = len(x)
        out = assert_equivalent(
            CAST_SRC,
            {"x": x, "y": np.zeros(n, np.int64), "z": np.zeros(n, np.int32)},
            {"n": n},
            n,
        )
        lmax, lmin = 2**63 - 1, -(2**63)
        imax, imin = 2**31 - 1, -(2**31)
        assert out.arrays["y"].tolist() == [
            lmax, lmax, lmin, 0, lmax, lmin, 2**31, -1, 1, lmin,
        ]
        assert out.arrays["z"].tolist() == [
            imax, imax, imin, 0, imax, imin, imax, -1, 1, imin,
        ]
