"""Native codegen: semantics vs the interpreter, per launch mode.

``direct`` and ``tracing`` launches run the src tier's flavors of the
same name, one lane after another; a ``buffered`` launch runs the
``lockstep`` flavor over buffered lane memory
(:class:`repro.ir.specvec.VectorizedSpecKernel`), all lanes at once.
"""

import ast
from unittest import mock

import numpy as np
import pytest

from repro.errors import JaponicaError, MemoryFault
from repro.ir import (
    ArrayStorage,
    CompiledKernel,
    DirectBackend,
    FuelExhausted,
    SpeculativeBackend,
    TracingBackend,
)
from repro.ir.columnar import ColumnarLanes
from repro.ir.interpreter import C_TOTAL, Counts, DEFAULT_FUEL, N_COUNTERS
from repro.ir.native import KernelCache, KernelDispatcher, dispatch
from repro.ir.native.codegen import (
    FLAVORS,
    NativeKernel,
    _load_view,
    generate,
    generate_source,
)
from repro.obs import Instrumentation

#: the launch modes ``_native`` runs
MODES = ("direct", "buffered", "tracing")

from ..conftest import lowered

BRANCHY = """
class T { static void f(int[] a, double[] b, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    int v = a[i];
    double s = 0.0;
    int k = 0;
    while (k < v) {
      if (k % 2 == 1) { s = s + 1.5; } else { s = s - 0.5; }
      k = k + 1;
    }
    b[i] = s;
  }
} }
"""


def _interp(fn, flavor, indices, env, storage, fuel=None):
    kern = CompiledKernel(fn) if fuel is None else CompiledKernel(fn, fuel=fuel)
    backend = {
        "direct": DirectBackend,
        "lockstep": DirectBackend,
        "buffered": SpeculativeBackend,
        "tracing": TracingBackend,
    }[flavor](storage)
    per_lane = []
    err = None
    try:
        for i in indices:
            before = kern.counters[C_TOTAL]
            kern.run_index(i, env, backend)
            per_lane.append(kern.counters[C_TOTAL] - before)
    except Exception as exc:  # noqa: BLE001 - compared structurally
        err = exc
    aux = None
    if flavor == "buffered":
        aux = backend.lanes
    elif flavor == "tracing":
        aux = backend.traces
    return per_lane, kern.take_counts(), aux, err


def _native(fn, flavor, indices, env, storage, fuel=None):
    """Run a launch on its native engine: ``direct`` and ``tracing`` on
    the src flavor of that name; ``buffered``, and ``lockstep`` (a
    lane-parallel direct launch, in lock-step at every width), through
    a dispatcher, so a launch the lock-step engine cannot finish reruns
    lane by lane as in production.  Through a dispatcher, a faulted
    launch reports no per-lane totals (``None``)."""
    if flavor in ("buffered", "lockstep"):
        return _dispatched(fn, flavor, indices, env, storage, fuel)
    kern = (
        NativeKernel(fn, flavor)
        if fuel is None
        else NativeKernel(fn, flavor, fuel)
    )
    raw = [0] * N_COUNTERS
    per_lane = []
    err = None
    aux = None
    try:
        aux = kern.run(indices, env, storage, raw, per_lane)
    except Exception as exc:  # noqa: BLE001
        err = exc
    return per_lane, Counts.from_raw(raw), aux, err


def _dispatched(fn, flavor, indices, env, storage, fuel=None):
    obs = Instrumentation.recording()
    d = KernelDispatcher(
        cache=KernelCache(fuel=fuel or DEFAULT_FUEL), obs=obs
    )
    per_lane = aux = err = None
    try:
        if flavor == "buffered":
            per_lane, aux = d.run_buffered(fn, indices, env, storage)
        else:
            with mock.patch.object(dispatch, "LOCKSTEP_MIN_LANES", 0):
                per_lane = d.run_direct(
                    fn, indices, env, storage, parallel=True
                )
    except Exception as exc:  # noqa: BLE001
        err = exc
    counters = obs.metrics.to_dict()["counters"]
    assert counters["kernel.tier.lockstep"] == 1
    return per_lane, d.take_counts(fn), aux, err


def assert_same_log(cols, interp_lanes, indices, storage):
    """A buffered launch's columns equal, column for column and
    bitwise, ``from_states`` of the interpreter's own lanes dict."""
    assert isinstance(cols, ColumnarLanes)
    want = ColumnarLanes.from_states(interp_lanes, indices, storage)
    assert want.differing_columns(cols) == []


def _storage():
    return ArrayStorage(
        {"a": np.arange(-2, 6, dtype=np.int32), "b": np.zeros(8)}
    )


class TestFlavors:
    @pytest.mark.parametrize("flavor", MODES)
    def test_branchy_matches_interpreter(self, flavor):
        _, fn = lowered(BRANCHY)
        env = {"n": 8}
        s1, s2 = _storage(), _storage()
        pl1, c1, aux1, e1 = _interp(fn, flavor, range(8), env, s1)
        pl2, c2, aux2, e2 = _native(fn, flavor, list(range(8)), env, s2)
        assert e1 is None and e2 is None
        assert pl1 == pl2
        assert c1 == c2
        if flavor == "buffered":
            assert_same_log(aux2, aux1, list(range(8)), s1)
        else:
            assert aux1 == aux2
        for name in s1.arrays:
            assert np.array_equal(s1.arrays[name], s2.arrays[name])
            assert s1.arrays[name].dtype == s2.arrays[name].dtype

    def test_buffered_leaves_storage_untouched(self):
        _, fn = lowered(BRANCHY)
        storage = _storage()
        before = storage.arrays["b"].copy()
        _, _, lanes, err = _native(
            fn, "buffered", list(range(8)), {"n": 8}, storage
        )
        assert err is None
        assert np.array_equal(storage.arrays["b"], before)
        assert set(lanes.order[lanes.present].tolist()) == set(range(8))

    def test_tracing_orders_accesses(self):
        _, fn = lowered(BRANCHY)
        s1, s2 = _storage(), _storage()
        _, _, tr1, _ = _interp(fn, "tracing", range(4), {"n": 8}, s1)
        _, _, tr2, _ = _native(fn, "tracing", list(range(4)), {"n": 8}, s2)
        assert tr1 == tr2


class TestFaults:
    def test_memory_fault_message_identical(self):
        _, fn = lowered(BRANCHY)
        env = {"n": 12}  # past the bound arrays
        _, _, _, e1 = _interp(fn, "direct", range(12), env, _storage())
        _, _, _, e2 = _native(fn, "direct", list(range(12)), env, _storage())
        assert type(e1) is type(e2) is MemoryFault
        assert str(e1) == str(e2)

    def test_unbound_array_message_identical(self):
        _, fn = lowered(BRANCHY)
        s1 = ArrayStorage({"a": np.arange(4, dtype=np.int32)})
        s2 = ArrayStorage({"a": np.arange(4, dtype=np.int32)})
        _, _, _, e1 = _interp(fn, "direct", range(4), {"n": 4}, s1)
        _, _, _, e2 = _native(fn, "direct", list(range(4)), {"n": 4}, s2)
        assert type(e1) is type(e2) is MemoryFault
        assert str(e1) == str(e2)

    def test_missing_scalar_message_identical(self):
        src = """
        class T { static void f(double[] b, double alpha, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) { b[i] = b[i] * alpha; }
        } }
        """
        _, fn = lowered(src)
        s1 = ArrayStorage({"b": np.zeros(4)})
        s2 = ArrayStorage({"b": np.zeros(4)})
        _, _, _, e1 = _interp(fn, "direct", range(4), {}, s1)
        _, _, _, e2 = _native(fn, "direct", [0, 1], {}, s2)
        assert isinstance(e2, JaponicaError)
        assert str(e1) == str(e2)

    def test_fuel_exhaustion_identical(self):
        src = """
        class T { static void f(double[] a, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) {
            int k = 1;
            while (k > 0) { k = 1; }
            a[i] = 0.0;
          }
        } }
        """
        _, fn = lowered(src)
        s1 = ArrayStorage({"a": np.zeros(2)})
        s2 = ArrayStorage({"a": np.zeros(2)})
        pl1, c1, _, e1 = _interp(fn, "direct", range(2), {"n": 2}, s1, 10_000)
        pl2, c2, _, e2 = _native(
            fn, "direct", [0, 1], {"n": 2}, s2, 10_000
        )
        assert type(e1) is type(e2) is FuelExhausted
        assert str(e1) == str(e2)
        # partial counts survive the exception identically on both sides
        assert c1 == c2
        assert pl1 == pl2 == []


class TestSource:
    def test_source_is_deterministic(self):
        _, fn = lowered(BRANCHY)
        assert generate_source(fn) == generate_source(fn)

    def test_lockstep_masks_only_registers_live_across_blocks(self):
        # the loop counter and the accumulator cross blocks and merge
        # under the mask; a block-local temporary is written whole
        _, fn = lowered(BRANCHY)
        src = generate_source(fn, "lockstep")
        merged = {line.split(" = ")[0].strip() for line in src.splitlines()
                  if "_sel(_m, " in line and " if _all else " in line}
        assert merged >= {"r3", "r5"}  # s and k
        assert "r7 = _A0(r5, r1)" in src  # k < v: block-local
        assert "_ld(" in src and "_st(" in src
        assert "_v[" in src and "_tmax" in src
        compile(src, "<lockstep>", "exec")

    def test_unknown_flavor_rejected(self):
        _, fn = lowered(BRANCHY)
        with pytest.raises(JaponicaError, match="flavor"):
            generate_source(fn, "warp")

    def test_counter_folds_are_static(self):
        # every block counts one visit and its total as literals, no
        # per-instr or per-category increments in the emitted source; the
        # launch adds visits times each block's static fold to _raw once
        _, fn = lowered(BRANCHY)
        src = generate_source(fn)
        visits = [line.strip() for line in src.splitlines()
                  if line.strip().startswith("_v") and "+= 1" in line]
        assert sorted(visits) == sorted(
            f"_v{b} += 1" for b in range(len(fn.blocks))
        )
        assert "_c7" not in src and "_c0" not in src
        assert "_raw[7] += _v0 * " in src


# one instance of every opcode, every java_ops helper (``_rf``, ``_divi``
# and the rest of SRC_GLOBALS), an intrinsic, 1-D and 2-D arrays and a
# load and store of the same cell in one lane
EVERY_OPCODE = """
class T { static void f(float[] x, int[] y, long[] z, double[][] m,
                        double s, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    float v = x[i] * 0.5f + (float) s;
    int q = y[i] / 3 + y[i] % 5 - (-y[i]) + ~y[i];
    long w = z[i] / 7L + z[i] % 9L + (long) v;
    boolean b = !(q > 2) && v < 1.0f || q == 4;
    double d = Math.sqrt(s) + (double) w / 2.0 + s % 3.0;
    m[i % 2][i % 3] = b ? d : -d;
    m[i % 2][i % 3] = m[i % 2][i % 3] + (double) (int) d;
    x[i] = v;
    y[i] = q;
    z[i] = w;
  }
} }
"""


class TestNames:
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_generated_locals_never_shadow_a_global(self, flavor):
        _, fn = lowered(EVERY_OPCODE)
        ops = {i.op for blk in fn.blocks for i in blk.instrs}
        assert len(ops) == 11  # every Opcode
        source, globals_ = generate(fn, flavor)
        tree = ast.parse(source)
        assigned = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        assigned |= {
            arg.arg for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) for arg in node.args.args
        }
        assert "_rf" in globals_ and any(k.startswith("_K") for k in globals_)
        # the lock-step flavor binds the table's array forms instead
        helpers = "_A" if flavor == "lockstep" else "_in"
        assert any(k.startswith(helpers) for k in globals_)
        assert assigned & set(globals_) == set()


# loads and stores over every array layout a load view can meet: "m" is
# Fortran-ordered, "s" a strided view, "ro" read-only and only loaded,
# and "dst" and "src" are views of one buffer, so each lane of a direct
# (or tracing) launch reads the cell the lane before it stored
LAYOUTS = """
class T { static void f(double[][] m, int[] s, double[] ro, double[] src,
                        double[] dst, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    m[i % 2][i % 3] = m[(i + 1) % 2][(i + 2) % 3] + ro[i];
    s[i] = s[i] * 3 + s[(i + 1) % n] + (int) ro[i];
    dst[i + 1] = src[i] + m[i % 2][1];
  }
} }
"""


def _layouts():
    buf = np.arange(1.0, 8.0)
    ro = np.linspace(-1.5, 2.5, 6)
    ro.setflags(write=False)
    return ArrayStorage({
        "m": np.asfortranarray(np.arange(6.0).reshape(2, 3) - 2.5),
        "s": np.arange(-6, 6, dtype=np.int32)[::2],
        "ro": ro,
        "src": buf[:6],
        "dst": buf.reshape(1, 7)[0],
    })


class TestLayouts:
    @pytest.mark.parametrize("flavor", MODES)
    def test_every_layout_matches_interpreter(self, flavor):
        _, fn = lowered(LAYOUTS)
        env = {"n": 6}
        s1, s2 = _layouts(), _layouts()
        arrays = s2.arrays
        assert not arrays["m"].flags.c_contiguous
        assert arrays["m"].flags.f_contiguous
        assert not arrays["s"].flags.c_contiguous
        assert not arrays["ro"].flags.writeable
        assert np.shares_memory(arrays["src"], arrays["dst"])
        pl1, c1, aux1, e1 = _interp(fn, flavor, range(6), env, s1)
        pl2, c2, aux2, e2 = _native(fn, flavor, list(range(6)), env, s2)
        assert e1 is None and e2 is None
        assert pl1 == pl2
        assert c1 == c2
        if flavor == "buffered":
            assert_same_log(aux2, aux1, list(range(6)), s1)
        else:
            assert aux1 == aux2
        for name in s1.arrays:
            a, b = s1.arrays[name], s2.arrays[name]
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        if flavor != "buffered":  # the stores chained through the alias
            assert s2.arrays["src"][1] != _layouts().arrays["src"][1]

    def test_contiguous_loads_index_a_memoryview(self):
        # no per-load ndarray.item call on a C-contiguous array
        _, fn = lowered(LAYOUTS)
        for flavor in ("direct", "tracing"):
            assert ".item" not in generate_source(fn, flavor)
        arrays = _layouts().arrays
        for name in ("ro", "src", "dst"):
            assert isinstance(_load_view(arrays[name]), memoryview)
        for name in ("m", "s"):
            view = _load_view(arrays[name])
            assert not isinstance(view, memoryview)
            a = arrays[name]
            assert [view[f] for f in range(a.size)] == [
                a.item(f) for f in range(a.size)
            ]

    @pytest.mark.parametrize(
        "dtype", [np.int32, np.int64, np.float32, np.float64, np.bool_]
    )
    def test_view_loads_are_item_loads(self, dtype):
        bits = np.array([0, 1, -1, 2**31 - 1, -(2**31), 7], dtype=np.int64)
        a = bits.astype(dtype)
        if dtype is np.float32:
            # NaN payloads, signed zeros and subnormals survive unchanged
            a = np.array([0x7FC12345, 0xFF800001, 0x80000000, 1, 0x7F800000,
                          0x3F800000], dtype=np.uint32).view(np.float32)
        view = _load_view(a)
        for f in range(a.size):
            got, want = view[f], a.item(f)
            assert type(got) is type(want)
            assert np.array(got).tobytes() == np.array(want).tobytes()
