"""Content-keyed artifact cache: keys, layers, and end-to-end behavior."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from repro.api import Japonica
from repro.cache import ArtifactCache, profile_key, unit_key
from repro.ir import ArrayStorage
from repro.workloads import get

from ..conftest import lowered

SRC = """
class T { static void f(double[] a, double[] b, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) { a[i] = b[i] * 2.0; }
} }
"""

SRC_EDITED = SRC.replace("2.0", "3.0")


# ---------------------------------------------------------------------------
# Key derivation
# ---------------------------------------------------------------------------


class TestKeys:
    def test_unit_key_stable_and_content_sensitive(self):
        assert unit_key(SRC, 16) == unit_key(SRC, 16)
        assert unit_key(SRC, 16) != unit_key(SRC_EDITED, 16)
        assert unit_key(SRC, 16) != unit_key(SRC, 8)

    def _pk(self, fn, storage, indices=(0, 1, 2), env=None, warp=32,
            sig="platform"):
        return profile_key(
            fn, list(indices), env or {"n": 4}, storage, warp, sig
        )

    def test_profile_key_sensitivity(self):
        _, fn = lowered(SRC)
        storage = ArrayStorage({"a": np.zeros(4), "b": np.ones(4)})
        base = self._pk(fn, storage)
        assert base == self._pk(fn, storage)  # deterministic

        # array *content* changes the key (irregular kernels read
        # addresses out of array values)
        edited = ArrayStorage({"a": np.zeros(4), "b": np.full(4, 2.0)})
        assert base != self._pk(fn, edited)

        # kernel content, sample window, scalars, warp size, platform
        _, fn2 = lowered(SRC_EDITED)
        assert base != self._pk(fn2, storage)
        assert base != self._pk(fn, storage, indices=(0, 1))
        assert base != self._pk(fn, storage, env={"n": 5})
        assert base != self._pk(fn, storage, warp=16)
        assert base != self._pk(fn, storage, sig="other")

    def test_profile_key_reads_the_sample_not_its_type(self):
        # a loop's sample arrives as a range; equal indices, equal key
        _, fn = lowered(SRC)
        storage = ArrayStorage({"a": np.zeros(4), "b": np.ones(4)})
        env, sig = {"n": 4}, "platform"
        for r in (range(3), range(5, 0, -2), range(0)):
            assert profile_key(fn, r, env, storage, 32, sig) == profile_key(
                fn, list(r), env, storage, 32, sig
            )

    def test_fingerprint_is_content_not_identity(self):
        _, fn1 = lowered(SRC)
        _, fn2 = lowered(SRC)
        assert fn1 is not fn2
        assert fn1.fingerprint() == fn2.fingerprint()
        _, fn3 = lowered(SRC_EDITED)
        assert fn1.fingerprint() != fn3.fingerprint()


# ---------------------------------------------------------------------------
# Cache layers
# ---------------------------------------------------------------------------


class TestLayers:
    def test_memory_hit_and_miss_accounting(self):
        cache = ArtifactCache()
        assert cache.get("k", "unit") is None
        cache.put("k", {"x": 1})
        assert cache.get("k", "unit") == {"x": 1}
        assert cache.stats() == {"hits": 1, "misses": 1, "quarantined": 0, "memory_entries": 1}

    def test_copy_value_isolates_consumers(self):
        cache = ArtifactCache()
        cache.put("k", {"x": [1, 2]})
        got = cache.get("k", "profile", copy_value=True)
        got["x"].append(3)
        assert cache.get("k", "profile", copy_value=True) == {"x": [1, 2]}

    def test_lru_eviction(self):
        cache = ArtifactCache(max_memory_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a", "t") == 1  # refresh a
        cache.put("c", 3)  # evicts b (least recently used)
        assert cache.get("b", "t") is None
        assert cache.get("a", "t") == 1
        assert cache.get("c", "t") == 3

    def test_disabled_cache_is_inert(self):
        cache = ArtifactCache(enabled=False)
        cache.put("k", 1)
        assert cache.get("k", "t") is None
        assert cache.stats() == {"hits": 0, "misses": 0, "quarantined": 0, "memory_entries": 0}

    def test_disk_layer_survives_process(self, tmp_path):
        d = str(tmp_path / "cache")
        ArtifactCache(cache_dir=d).put("k", {"x": 7})
        fresh = ArtifactCache(cache_dir=d)  # simulates a new process
        assert fresh.get("k", "t") == {"x": 7}
        assert fresh.hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        d = str(tmp_path / "cache")
        cache = ArtifactCache(cache_dir=d)
        cache.put("k", {"x": 7})
        path = os.path.join(d, "k.pkl")
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        fresh = ArtifactCache(cache_dir=d)
        assert fresh.get("k", "t") is None
        assert fresh.misses == 1

    def test_no_stray_tmp_files(self, tmp_path):
        d = str(tmp_path / "cache")
        cache = ArtifactCache(cache_dir=d)
        cache.put("k1", 1)
        cache.put("k2", 2)
        assert sorted(os.listdir(d)) == ["k1.pkl", "k2.pkl"]

    def test_metrics_reported_through_obs(self):
        from repro.obs import Instrumentation

        obs = Instrumentation.recording()
        cache = ArtifactCache()
        cache.get("k", "unit", obs=obs)
        cache.put("k", 1)
        cache.get("k", "unit", obs=obs)
        m = obs.metrics
        assert m.counter("cache.miss").value == 1
        assert m.counter("cache.miss.unit").value == 1
        assert m.counter("cache.hit").value == 1
        assert m.counter("cache.hit.unit").value == 1


# ---------------------------------------------------------------------------
# End to end: compile + run through the cache
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_unit_hit_equals_cold_compile(self):
        cache = ArtifactCache()
        p_cold = Japonica(cache=cache).compile(SRC)
        assert cache.stats()["misses"] == 1
        p_warm = Japonica(cache=cache).compile(SRC)
        assert cache.stats()["hits"] == 1
        assert p_warm.methods == p_cold.methods
        for m in p_cold.methods:
            assert p_warm.cuda_source(m) == p_cold.cuda_source(m)
            assert p_warm.java_source(m) == p_cold.java_source(m)

    def test_source_edit_invalidates(self):
        cache = ArtifactCache()
        Japonica(cache=cache).compile(SRC)
        Japonica(cache=cache).compile(SRC_EDITED)
        assert cache.stats() == {
            "hits": 0, "misses": 2, "quarantined": 0, "memory_entries": 2,
        }

    def test_warm_run_is_identical_and_skips_profiling(self, tmp_path):
        w = get("Guass-Seidel")  # profiles at runtime (DOACROSS)
        d = str(tmp_path / "cache")

        cold_cache = ArtifactCache(cache_dir=d)
        r_cold = w.run(
            "japonica", japonica=Japonica(cache=cold_cache), cache=cold_cache
        )
        assert cold_cache.stats()["misses"] == 2  # unit + profile

        warm_cache = ArtifactCache(cache_dir=d)  # fresh process, same dir
        ctx = w.make_context(cache=warm_cache)
        r_warm = w.run(
            "japonica", japonica=Japonica(cache=warm_cache), context=ctx
        )
        assert warm_cache.hits == 2 and warm_cache.misses == 0

        assert r_warm.sim_time_s == r_cold.sim_time_s
        for name, arr in r_cold.arrays.items():
            assert np.array_equal(r_warm.arrays[name], arr), name

        # cached profile equals a freshly computed one field for field
        ctx_ref = w.make_context()
        r_ref = w.run("japonica", context=ctx_ref)
        assert r_ref.sim_time_s == r_cold.sim_time_s
        assert set(ctx.profiles) == set(ctx_ref.profiles)
        for loop_id, ref in ctx_ref.profiles.items():
            assert dataclasses.asdict(ctx.profiles[loop_id]) == (
                dataclasses.asdict(ref)
            ), loop_id

    def test_fault_injection_bypasses_profile_cache(self, tmp_path):
        w = get("Guass-Seidel")
        d = str(tmp_path / "cache")
        cache = ArtifactCache(cache_dir=d)
        binds = w.bindings()
        result = w.run(
            "japonica", japonica=Japonica(cache=cache), cache=cache,
            faults="gpu.launch@1",
        )
        w.verify(result, binds)
        # only the translation unit touched the cache: the profile path
        # must not look up or store under an active fault schedule (a hit
        # would skip the profiling launch's fault-probe draws)
        assert cache.stats() == {
            "hits": 0, "misses": 1, "quarantined": 0, "memory_entries": 1,
        }
