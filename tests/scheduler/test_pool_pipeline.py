"""Mode A runs one pipeline at every pool size; a single GPU is a pool of one.

The sharing scheme's GPU part goes through the same sharded DMA/kernel
pipeline whether the pool holds one device or four.  These tests pin
the behaviour that used to differ between the single-GPU copy of that
pipeline and the pool version: the synchronous (no-prefetch) path waits
for its copy-in on every device, a launch fault in a pool of one goes to
the degradation ladder rather than the drain, and the per-shard counters
stay pool-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import Instrumentation
from repro.runtime.clock import dma_lane, gpu_lane
from repro.workloads import get


def _lane_events(timeline, lane):
    return [e for e in timeline.events if e.lane == lane]


@pytest.mark.parametrize("devices", [1, 2, 4])
def test_sync_pipeline_kernels_wait_for_their_copy_in(devices):
    """coop50 runs with prefetch off: on every device the first kernel
    starts no earlier than the end of that device's ``h2d-sync``, and the
    copy-back is labelled ``d2h-sync``."""
    result = get("BFS").run("coop50", devices=devices)
    checked = 0
    for _, res in result.loop_results:
        for k in range(devices):
            kernels = [
                e for e in _lane_events(res.timeline, gpu_lane(k))
                if e.label.startswith("kernel#")
            ]
            if not kernels:
                continue
            dma = _lane_events(res.timeline, dma_lane(k))
            copy_in = [e for e in dma if e.label == "h2d-sync"]
            assert len(copy_in) == 1, (k, [e.label for e in dma])
            assert kernels[0].start >= copy_in[0].end, (k, kernels[0])
            copy_back = [e.label for e in dma if e.label.startswith("d2h")]
            assert copy_back == ["d2h-sync"], (k, copy_back)
            checked += 1
    assert checked >= devices


def test_one_device_launch_fault_goes_to_the_ladder():
    """In a pool of one there is nowhere to drain: a launch fault rolls
    the rung back and degrades A->cpu-mt, and device 0 stays alive."""
    w = get("VectorAdd")
    clean = w.run("japonica", devices=1)
    ctx = w.make_context(devices=1)
    faulty = w.run(
        "japonica", context=ctx, faults="gpu.launch:1.0", fault_seed=1
    )
    for name, arr in clean.arrays.items():
        assert np.array_equal(faulty.arrays[name], arr, equal_nan=True), name
    actions = [
        e.action for e in faulty.resilience.events if e.kind == "degrade"
    ]
    assert "A->cpu-mt" in actions, actions
    assert not any(a.endswith("->drain") or a.startswith("pool->")
                   for a in actions), actions
    assert ctx.pool.alive_ids() == [0]
    assert [res.mode for _, res in faulty.loop_results] == ["A->cpu-mt"]


@pytest.mark.parametrize("devices,expected", [(1, False), (2, True)])
def test_shard_counters_are_pool_only(devices, expected):
    obs = Instrumentation.recording()
    w = get("VectorAdd")
    w.run("japonica", context=w.make_context(devices=devices, obs=obs))
    names = obs.metrics.to_dict()["counters"]
    assert any(n.startswith("scheduler.shard.") for n in names) is expected
