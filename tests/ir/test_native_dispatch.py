"""Kernel dispatcher: tiering, promotion, shared cache, crosscheck."""

import numpy as np
import pytest

from repro.errors import NativeMismatch
from repro.ir import ArrayStorage
from repro.ir.native import (
    KernelCache,
    KernelDispatcher,
    TIER_INTERP,
    TIER_SRC,
)
from repro.obs import Instrumentation

from ..conftest import lowered

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


def _storage(n=16):
    return ArrayStorage(
        {"a": np.arange(-4, n - 4, dtype=np.float64), "b": np.zeros(n)}
    )


class TestPromotion:
    def test_cold_kernel_uses_interpreter(self):
        d = KernelDispatcher(cache=KernelCache())
        fn = _fn()
        d.run_direct(fn, list(range(8)), {}, _storage())
        assert d._tier.get(fn.fingerprint(), TIER_INTERP) == TIER_INTERP
        assert d.cache.compiles["src"] == 0

    def test_hot_kernel_promotes_to_src(self):
        d = KernelDispatcher(
            cache=KernelCache(), src_threshold=16
        )
        fn = _fn()
        d.run_direct(fn, list(range(8)), {}, _storage())
        d.run_direct(fn, list(range(8)), {}, _storage())
        assert d._tier[fn.fingerprint()] == TIER_SRC
        assert d.cache.compiles["src"] == 1

    def test_one_large_launch_promotes_immediately(self):
        d = KernelDispatcher(
            cache=KernelCache(), src_threshold=16
        )
        fn = _fn()
        d.run_direct(fn, list(range(16)), {}, _storage())
        assert d._tier[fn.fingerprint()] == TIER_SRC

    def test_native_off_never_promotes(self):
        d = KernelDispatcher(
            cache=KernelCache(),
            src_threshold=1,
            native=False,
        )
        fn = _fn()
        d.run_direct(fn, list(range(16)), {}, _storage())
        assert d.cache.compiles["src"] == 0

    def test_promotion_emits_tracer_span(self):
        obs = Instrumentation.recording()
        d = KernelDispatcher(
            cache=KernelCache(),
            src_threshold=1,
            obs=obs,
        )
        fn = _fn()
        d.run_direct(fn, [0, 1], {}, _storage())
        spans = [
            s for s in obs.tracer.finished_spans()
            if s.name.startswith("promote:")
        ]
        assert len(spans) == 1
        assert spans[0].attrs["tier"] == TIER_SRC
        assert spans[0].attrs["from_tier"] == TIER_INTERP

    def test_promotion_span_names_the_tier_that_runs(self):
        # a hot control-flow kernel must report the tier it executes on:
        # the promote span's tier and the kernel.tier.* counter agree
        obs = Instrumentation.recording()
        d = KernelDispatcher(cache=KernelCache(), obs=obs)
        fn = _fn()
        n = 65536
        storage = ArrayStorage(
            {"a": np.arange(n, dtype=np.float64) - 4.0, "b": np.zeros(n)}
        )
        d.run_direct(fn, list(range(n)), {}, storage)
        spans = [
            s for s in obs.tracer.finished_spans()
            if s.name.startswith("promote:")
        ]
        assert [s.attrs["tier"] for s in spans] == [TIER_SRC]
        m = obs.metrics
        assert m.counter(f"kernel.tier.{spans[0].attrs['tier']}").value == 1
        assert m.counter("kernel.tier.interp").value == 0

    def test_tier_counters_recorded(self):
        obs = Instrumentation.recording()
        d = KernelDispatcher(
            cache=KernelCache(),
            src_threshold=16,
            obs=obs,
        )
        fn = _fn()
        d.run_direct(fn, list(range(8)), {}, _storage())
        d.run_direct(fn, list(range(8)), {}, _storage())
        m = obs.metrics
        assert m.counter("kernel.tier.interp").value == 1
        assert m.counter("kernel.tier.src").value == 1


class TestSharedCache:
    def test_two_dispatchers_share_compiles(self):
        # N devices / executors of one process compile each kernel once
        cache = KernelCache()
        d1 = KernelDispatcher(cache=cache, src_threshold=1)
        d2 = KernelDispatcher(cache=cache, src_threshold=1)
        fn = _fn()
        d1.run_direct(fn, list(range(8)), {}, _storage())
        d2.run_direct(fn, list(range(8)), {}, _storage())
        assert cache.compiles["src"] == 1

    def test_counters_are_per_dispatcher(self):
        cache = KernelCache()
        d1 = KernelDispatcher(cache=cache, src_threshold=1)
        d2 = KernelDispatcher(cache=cache, src_threshold=1)
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
            d = KernelDispatcher(
                cache=KernelCache(),
                src_threshold=1,
                native=native,
            )
            storage = _storage()
            run = getattr(d, f"run_{flavor}")
            out = run(fn, list(range(16)), {}, storage)
            runs[native] = (out, d.take_counts(fn), storage)
        out_i, counts_i, st_i = runs[False]
        out_n, counts_n, st_n = runs[True]
        assert out_i == out_n
        assert counts_i == counts_n
        for name in st_i.arrays:
            assert np.array_equal(st_i.arrays[name], st_n.arrays[name])


class TestCrosscheck:
    def test_clean_kernel_passes(self):
        obs = Instrumentation.recording()
        d = KernelDispatcher(
            cache=KernelCache(),
            src_threshold=1,
            crosscheck=True,
            obs=obs,
        )
        fn = _fn()
        d.run_direct(fn, list(range(16)), {}, _storage())
        assert obs.metrics.counter("kernel.crosscheck.ok").value == 1
        assert obs.metrics.counter("kernel.crosscheck.mismatch").value == 0

    def test_divergence_raises_mismatch(self):
        d = KernelDispatcher(
            cache=KernelCache(),
            src_threshold=1,
            crosscheck=True,
        )
        fn = _fn()
        # sabotage the cached src kernel so the tiers disagree
        broken = d.cache.src(fn, "direct")

        class Broken:
            def run(self, indices, env, storage, raw, per_lane):
                out = broken.run(indices, env, storage, raw, per_lane)
                storage.arrays["b"][0] += 1.0
                return out

        d.cache._src[(fn.fingerprint(), "direct")] = Broken()
        with pytest.raises(NativeMismatch, match="diverged"):
            d.run_direct(fn, list(range(16)), {}, _storage())

    def test_interpreter_effects_win(self):
        d = KernelDispatcher(
            cache=KernelCache(),
            src_threshold=1,
            crosscheck=True,
        )
        fn = _fn()
        storage = _storage()
        expect = _storage()
        KernelDispatcher(cache=KernelCache(), native=False).run_direct(
            fn, list(range(16)), {}, expect
        )
        d.run_direct(fn, list(range(16)), {}, storage)
        assert np.array_equal(storage.arrays["b"], expect.arrays["b"])
