"""Kernel dispatcher: tiers, compile fallback, shared cache, crosscheck."""

import numpy as np
import pytest

from repro.errors import JaponicaError, NativeMismatch
from repro.ir import ArrayStorage
from repro.ir.columnar import ColumnarLanes
from repro.ir.native import KernelCache, KernelDispatcher, codegen
from repro.obs import Instrumentation

from ..conftest import lowered
from ..oracles import as_states

SRC = """
class T { static void f(double[] a, double[] b, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    if (a[i] > 0.0) { b[i] = a[i] * 2.0; } else { b[i] = -a[i]; }
  }
} }
"""


def _fn():
    return lowered(SRC)[1]


def _counters(obs):
    return obs.metrics.to_dict()["counters"]


def _storage(n=16):
    return ArrayStorage(
        {"a": np.arange(-4, n - 4, dtype=np.float64), "b": np.zeros(n)}
    )


class TestPromotion:
    """A kernel runs on the src tier from its first launch."""

    def test_first_launch_compiles_src(self):
        obs = Instrumentation.recording()
        d = KernelDispatcher(cache=KernelCache(), obs=obs)
        fn = _fn()
        d.run_direct(fn, list(range(8)), {}, _storage())
        assert d.cache.compiles["src"] == 1
        assert _counters(obs) == {
            "kernel.dispatch.direct": 1,
            "kernel.tier.src": 1,
            "kernel.tier.src.iterations": 8,
        }

    def test_launches_emit_no_span(self):
        # a compile span would make a trace depend on process history
        obs = Instrumentation.recording()
        d = KernelDispatcher(cache=KernelCache(), obs=obs)
        fn = _fn()
        d.run_direct(fn, [0, 1], {}, _storage())
        d.run_direct(fn, list(range(16)), {}, _storage())
        assert obs.tracer.finished_spans() == []

    def test_first_launch_is_crosschecked(self):
        obs = Instrumentation.recording()
        d = KernelDispatcher(cache=KernelCache(), crosscheck=True, obs=obs)
        d.run_direct(_fn(), list(range(8)), {}, _storage())
        assert obs.metrics.counter("kernel.crosscheck.ok").value == 1

    def test_native_off_never_promotes(self):
        obs = Instrumentation.recording()
        d = KernelDispatcher(cache=KernelCache(), native=False, obs=obs)
        fn = _fn()
        d.run_direct(fn, list(range(16)), {}, _storage())
        assert d.cache.compiles["src"] == 0
        assert "kernel.tier.src" not in _counters(obs)
        assert _counters(obs)["kernel.tier.interp"] == 1

    def test_tier_counters_recorded(self):
        obs = Instrumentation.recording()
        d = KernelDispatcher(cache=KernelCache(), obs=obs)
        fn = _fn()
        d.run_direct(fn, list(range(8)), {}, _storage())
        d.run_direct(fn, list(range(8)), {}, _storage())
        counters = _counters(obs)
        assert counters["kernel.tier.src"] == 2
        assert counters["kernel.tier.src.iterations"] == 16
        assert "kernel.tier.interp" not in counters


class TestCompileFailure:
    """A kernel the generator cannot compile runs on the interpreter."""

    @pytest.fixture
    def attempts(self, monkeypatch):
        seen = []

        def fail(fn, flavor="direct", fuel=None):
            seen.append((fn.fingerprint(), flavor))
            raise JaponicaError("unsupported by the generator")

        monkeypatch.setattr(codegen, "generate", fail)
        return seen

    @pytest.mark.parametrize("flavor", ["direct", "buffered", "tracing"])
    def test_falls_back_bitwise(self, attempts, flavor):
        fn = _fn()
        obs = Instrumentation.recording()
        runs = {}
        for native in (False, True):
            d = KernelDispatcher(cache=KernelCache(), native=native, obs=obs)
            storage = _storage()
            run = getattr(d, f"run_{flavor}")
            out = [run(fn, list(range(16)), {}, storage) for _ in range(2)]
            if flavor == "buffered":  # (per_lane, columns) per launch
                out = [(per_lane, as_states(lanes)) for per_lane, lanes in out]
            runs[native] = (out, d.take_counts(fn), storage)
        assert runs[True][:2] == runs[False][:2]
        for name, arr in runs[False][2].arrays.items():
            assert arr.tobytes() == runs[True][2].arrays[name].tobytes()
        # one attempt per (kernel, flavor) in the cache's lifetime; a
        # buffered launch runs the lock-step flavor
        generated = "lockstep" if flavor == "buffered" else flavor
        assert attempts == [(fn.fingerprint(), generated)]
        counters = _counters(obs)
        assert counters["kernel.compile.failed"] == 2
        assert counters["kernel.tier.interp"] == 4
        assert "kernel.tier.src" not in counters

    def test_nesting_beyond_python_limits_runs_on_interpreter(self):
        # 25 nested loops: CPython compiles at most 20 statically nested
        # blocks, so the structured source fails to compile
        depth = 25
        heads = "".join(
            f"for (int k{d} = 0; k{d} < 1; k{d}++) {{ " for d in range(depth)
        )
        src = (
            "class T { static void f(int[] a, int n) {\n"
            "  /* acc parallel */\n"
            "  for (int i = 0; i < n; i++) { "
            + heads + "a[i] = a[i] + i + k24; " + "} " * depth
            + "}\n} }\n"
        )
        fn = lowered(src)[1]
        with pytest.raises(SyntaxError, match="nested blocks"):
            compile(codegen.generate_source(fn), "<nested>", "exec")
        runs = {}
        for native in (False, True):
            obs = Instrumentation.recording()
            d = KernelDispatcher(cache=KernelCache(), native=native, obs=obs)
            storage = ArrayStorage({"a": np.arange(3, dtype=np.int32)})
            per_lane = d.run_direct(fn, [0, 1, 2], {}, storage)
            runs[native] = (per_lane, d.take_counts(fn), storage, obs)
        assert runs[True][:2] == runs[False][:2]
        assert (
            runs[True][2].arrays["a"].tobytes()
            == runs[False][2].arrays["a"].tobytes()
        )
        counters = _counters(runs[True][3])
        assert counters["kernel.compile.failed"] == 1
        assert counters["kernel.tier.interp"] == 1

    def test_crosscheck_runs_interpreter_alone(self, attempts):
        obs = Instrumentation.recording()
        d = KernelDispatcher(cache=KernelCache(), crosscheck=True, obs=obs)
        storage = _storage()
        d.run_direct(_fn(), list(range(16)), {}, storage)
        assert storage.arrays["b"][0] == 4.0
        counters = _counters(obs)
        assert counters["kernel.compile.failed"] == 1
        assert "kernel.crosscheck.ok" not in counters
        assert "kernel.crosscheck.mismatch" not in counters


class TestSharedCache:
    def test_two_dispatchers_share_compiles(self):
        # N devices / executors of one process compile each kernel once
        cache = KernelCache()
        d1 = KernelDispatcher(cache=cache)
        d2 = KernelDispatcher(cache=cache)
        fn = _fn()
        d1.run_direct(fn, list(range(8)), {}, _storage())
        d2.run_direct(fn, list(range(8)), {}, _storage())
        assert cache.compiles["src"] == 1

    def test_counters_are_per_dispatcher(self):
        cache = KernelCache()
        d1 = KernelDispatcher(cache=cache)
        d2 = KernelDispatcher(cache=cache)
        fn = _fn()
        d1.run_direct(fn, list(range(8)), {}, _storage())
        assert d1.peek_counts(fn).instructions > 0
        assert d2.peek_counts(fn).instructions == 0

    def test_take_counts_drains(self):
        d = KernelDispatcher(cache=KernelCache())
        fn = _fn()
        d.run_direct(fn, list(range(4)), {}, _storage())
        first = d.take_counts(fn)
        assert first.instructions > 0
        assert d.take_counts(fn).instructions == 0


class TestTierEquivalence:
    @pytest.mark.parametrize("flavor", ["direct", "buffered", "tracing"])
    def test_src_tier_bitwise_equal(self, flavor):
        fn = _fn()
        runs = {}
        for native in (False, True):
            d = KernelDispatcher(cache=KernelCache(), native=native)
            storage = _storage()
            run = getattr(d, f"run_{flavor}")
            out = run(fn, list(range(16)), {}, storage)
            runs[native] = (out, d.take_counts(fn), storage)
        out_i, counts_i, st_i = runs[False]
        out_n, counts_n, st_n = runs[True]
        if flavor == "buffered":
            # the interpreter's lanes dict goes through from_states; the
            # lock-step kernel writes the columns itself
            (pl_i, cols_i), (pl_n, cols_n) = out_i, out_n
            assert pl_i == pl_n
            assert isinstance(cols_n, ColumnarLanes)
            assert cols_i.differing_columns(cols_n) == []
        else:
            assert out_i == out_n
        assert counts_i == counts_n
        for name in st_i.arrays:
            assert np.array_equal(st_i.arrays[name], st_n.arrays[name])


class TestCrosscheck:
    def test_clean_kernel_passes(self):
        obs = Instrumentation.recording()
        d = KernelDispatcher(cache=KernelCache(), crosscheck=True, obs=obs)
        fn = _fn()
        d.run_direct(fn, list(range(16)), {}, _storage())
        assert obs.metrics.counter("kernel.crosscheck.ok").value == 1
        assert obs.metrics.counter("kernel.crosscheck.mismatch").value == 0

    def test_divergence_raises_mismatch(self):
        d = KernelDispatcher(cache=KernelCache(), crosscheck=True)
        fn = _fn()
        # sabotage the cached src kernel so the tiers disagree
        broken = d.cache.src(fn, "direct")

        class Broken:
            tier = broken.tier

            def run(self, indices, env, storage, raw, per_lane):
                out = broken.run(indices, env, storage, raw, per_lane)
                storage.arrays["b"][0] += 1.0
                return out

        d.cache._compiled["src", fn.fingerprint(), "direct"] = Broken()
        with pytest.raises(NativeMismatch, match="diverged"):
            d.run_direct(fn, list(range(16)), {}, _storage())

    def test_dropped_logged_read_raises_mismatch(self):
        d = KernelDispatcher(cache=KernelCache(), crosscheck=True)
        fn = _fn()
        real = d.cache.lockstep(fn, "buffered")

        class DropsARead:
            tier = real.tier

            def run(self, indices, env, storage, raw, per_lane):
                cols = real.run(indices, env, storage, raw, per_lane)
                for name in ("r_pos", "r_op", "r_arr", "r_flat"):
                    setattr(cols, name, getattr(cols, name)[1:])
                return cols

        d.cache._compiled["lockstep", fn.fingerprint(), "buffered"] = (
            DropsARead()
        )
        with pytest.raises(
            NativeMismatch, match="r_pos, r_op, r_arr, r_flat"
        ):
            d.run_buffered(fn, list(range(16)), {}, _storage())

    def test_interpreter_effects_win(self):
        d = KernelDispatcher(cache=KernelCache(), crosscheck=True)
        fn = _fn()
        storage = _storage()
        expect = _storage()
        KernelDispatcher(cache=KernelCache(), native=False).run_direct(
            fn, list(range(16)), {}, expect
        )
        d.run_direct(fn, list(range(16)), {}, storage)
        assert np.array_equal(storage.arrays["b"], expect.arrays["b"])
