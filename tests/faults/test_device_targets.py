"""``#k`` fault targets reach every transfer of device k.

Loop-data staging (first-touch copy-in and stale-fraction refresh) and
the device-to-host copy-back are charged by the ``DeviceMemory`` of the
device doing the work, which probes the fault plane with its own id.  So
at one device a rule targeted at ``#0`` must behave exactly like the same
untargeted rule: same arrays, same simulated time, same recovery events.
Before staging moved into ``DeviceMemory`` the single-GPU copy-backs and
refreshes probed with no device id, and ``#0`` rules silently skipped
them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads import get

#: (workload, strategy, a mode the run must contain): mode A under the
#: sharing scheme, the GPU-alone baseline, TLS (B) and privatized (D)
CASES = [
    ("VectorAdd", "japonica", "A"),
    ("VectorAdd", "gpu", "gpu-only"),
    ("BlackScholes", "japonica", "B"),
    ("Sepia", "japonica", "D"),
]


def _run(name, strategy, spec, context=None):
    result = get(name).run(
        strategy, devices=1, faults=spec, fault_seed=0, context=context
    )
    events = [(e.kind, e.site, e.action) for e in result.resilience.events]
    return result, events


def _assert_same_run(a, b):
    (r_a, ev_a), (r_b, ev_b) = a, b
    assert ev_a == ev_b
    assert r_a.sim_time_s == r_b.sim_time_s
    assert [res.mode for _, res in r_a.loop_results] == [
        res.mode for _, res in r_b.loop_results
    ]
    for name, arr in r_a.arrays.items():
        assert np.array_equal(r_b.arrays[name], arr, equal_nan=True), name


@pytest.mark.parametrize(
    "name,strategy,mode", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES]
)
def test_d2h_target_on_device_zero_matches_untargeted(name, strategy, mode):
    untargeted = _run(name, strategy, "transfer.d2h@1")
    targeted = _run(name, strategy, "transfer.d2h#0@1")
    assert mode in {res.mode for _, res in untargeted[0].loop_results}
    assert ("fault", "transfer.d2h", "inject") in untargeted[1]
    _assert_same_run(untargeted, targeted)


def test_h2d_target_on_device_zero_reaches_refresh_transfers():
    """The last H2D probe of a BFS run is a later level's stale-fraction
    refresh of an already-resident array, not a first-touch copy-in."""
    w = get("BFS")
    ctx = w.make_context(devices=1)
    _run("BFS", "japonica", "transfer.h2d@1000000", context=ctx)
    last = ctx.faults.plane.probes("transfer.h2d")
    first_touches = {
        move.array
        for loop in w.compile().unit.all_loops
        for move in loop.data_plan.copyin
    }
    assert last > len(first_touches)

    untargeted = _run("BFS", "japonica", f"transfer.h2d@{last}")
    targeted = _run("BFS", "japonica", f"transfer.h2d#0@{last}")
    assert ("fault", "transfer.h2d", "inject") in untargeted[1]
    _assert_same_run(untargeted, targeted)
