"""Iteration spaces stay ranges from the loop to the kernel.

A loop's iteration space is a ``range``; the sharing scheme's split, the
device shards, the pipeline chunks and the CPU's descending walk are
slices of it, and every engine reads any ``Sequence[int]``.  These
tests pin that the slices stay ranges with the elements the list
versions give, that a DOALL loop reaches the device, the CPU executor
and the lock-step kernel as a range, and that a range and the equal
list give bitwise the same launch on every kernel tier.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.api import Japonica
from repro.cpusim.executor import CpuExecutor
from repro.cpusim.threads import block_partition, descending, uniform_chunks
from repro.gpusim.device import GpuDevice
from repro.ir import ArrayStorage
from repro.ir.native import KernelCache, KernelDispatcher, dispatch
from repro.ir.vectorizer import VectorizedKernel
from repro.obs import Instrumentation
from repro.scheduler.boundary import split_at_boundary
from repro.scheduler.sharding import partition_weighted

from ..conftest import VEC_SRC, lowered

ranges = st.builds(
    range,
    st.integers(-40, 40),
    st.integers(-40, 120),
    st.integers(-5, 5).filter(bool),
)


class TestSlicesStayRanges:
    @given(r=ranges, fraction=st.floats(0.0, 1.0))
    def test_split_at_boundary(self, r, fraction):
        got = split_at_boundary(r, fraction)
        assert all(isinstance(part, range) for part in got)
        assert [list(p) for p in got] == list(
            split_at_boundary(list(r), fraction)
        )

    @given(r=ranges, weights=st.lists(st.floats(0.0, 10.0), min_size=1,
                                      max_size=5))
    def test_partition_weighted(self, r, weights):
        got = partition_weighted(r, weights)
        assert all(isinstance(part, range) for part in got)
        assert [list(p) for p in got] == partition_weighted(list(r), weights)

    @given(r=ranges, parts=st.integers(1, 9))
    def test_block_partition(self, r, parts):
        got = block_partition(r, parts)
        assert all(isinstance(part, range) for part in got)
        assert [list(p) for p in got] == block_partition(list(r), parts)

    @given(r=ranges, size=st.integers(1, 12))
    def test_uniform_chunks(self, r, size):
        got = uniform_chunks(r, size)
        assert all(isinstance(part, range) for part in got)
        assert [list(p) for p in got] == uniform_chunks(list(r), size)

    @given(r=ranges)
    def test_descending(self, r):
        got = descending(r)
        assert isinstance(got, range)
        assert list(got) == descending(list(r))


def _spy(monkeypatch, owner, name):
    """Record the ``indices`` argument of every call to ``owner.name``."""
    original = getattr(owner, name)
    signature = inspect.signature(original)
    seen = []

    def wrapper(*args, **kwargs):
        seen.append(signature.bind(*args, **kwargs).arguments["indices"])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return seen


@pytest.mark.parametrize("devices", [1, 4])
def test_doall_loop_reaches_the_kernel_as_a_range(monkeypatch, devices):
    launches = _spy(monkeypatch, GpuDevice, "launch")
    cpu_runs = _spy(monkeypatch, CpuExecutor, "run_parallel")
    kernels = _spy(monkeypatch, VectorizedKernel, "run_range")
    n = 1000
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    result = Japonica().compile(VEC_SRC).run(
        "run", scheme="sharing", devices=devices,
        a=a, b=b, c=np.zeros(n), n=n,
    )
    assert np.array_equal(result.arrays["c"], a * 2.0 + b)
    assert [r.mode for _, r in result.loop_results] == ["A"]
    assert launches and cpu_runs and kernels
    for seen in (launches, cpu_runs, kernels):
        assert all(isinstance(indices, range) for indices in seen)
    # the device shards and the CPU part cover the loop once
    assert sorted(i for r in launches + cpu_runs for i in r) == list(range(n))
    assert all(r.step == -1 for r in cpu_runs)  # walked descending


STRAIGHT = """
class T { static void f(double[] a, double[] b, double[] c, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) { c[i] = a[i] * 2.0 + b[i]; }
} }
"""

#: a branch and a per-lane inner loop
BRANCHY = """
class T { static void f(double[] a, double[] b, double[] c, int n) {
  /* acc parallel */
  for (int i = 0; i < n; i++) {
    double s = b[i];
    for (int k = 0; k < i % 5; k++) { s = s * 0.5 + a[i]; }
    if (s > 0.0) { c[i] = s; } else { c[i] = a[i] - s; }
  }
} }
"""

LO = 3
HI = LO + dispatch.LOCKSTEP_MIN_LANES + 8

#: (tier, flavor) launches that exist: the src tier has no buffered flavor
TIERS = [("lockstep", "direct"), ("lockstep", "buffered"),
         ("src", "direct"), ("interp", "direct"), ("interp", "buffered")]


def _launch(tier, fn, flavor, indices):
    """One launch pinned to ``tier``: (storage, counts, per-lane totals,
    SE log or None)."""
    obs = Instrumentation.recording()
    d = KernelDispatcher(cache=KernelCache(), obs=obs)
    d._kernel = {
        "lockstep": lambda *_: d.cache.lockstep(fn, flavor),
        "src": lambda *_: d.cache.src(fn, flavor),
        "interp": lambda *_: None,
    }[tier]
    rng = np.random.default_rng(2)
    storage = ArrayStorage({
        "a": rng.standard_normal(HI), "b": rng.standard_normal(HI),
        "c": np.zeros(HI),
    })
    env = {"n": HI}
    if flavor == "direct":
        per_lane = d.run_direct(fn, indices, env, storage, parallel=True)
        lanes = None
    else:
        per_lane, lanes = d.run_buffered(fn, indices, env, storage)
    counters = obs.metrics.to_dict()["counters"]
    assert counters[f"kernel.tier.{tier}"] == 1
    assert "kernel.tier.lockstep.fallbacks" not in counters
    return storage, d.take_counts(fn), per_lane, lanes


@pytest.mark.parametrize("src", [STRAIGHT, BRANCHY],
                         ids=["straight", "branchy"])
@pytest.mark.parametrize("tier,flavor", TIERS)
def test_range_and_list_launch_alike(src, tier, flavor):
    _, fn = lowered(src)
    s1, c1, pl1, lanes1 = _launch(tier, fn, flavor, range(LO, HI))
    s2, c2, pl2, lanes2 = _launch(tier, fn, flavor, list(range(LO, HI)))
    for name, arr in s1.arrays.items():
        assert arr.tobytes() == s2.arrays[name].tobytes(), name
    assert c1 == c2 and c1.instructions > 0
    assert pl1 == pl2 and len(pl1) == HI - LO
    if flavor == "buffered":
        assert lanes1.differing_columns(lanes2) == []
        assert lanes1.order.tolist() == list(range(LO, HI))
