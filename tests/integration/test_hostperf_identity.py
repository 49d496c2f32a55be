"""Production SE-log consumers vs. the scalar oracles, end to end.

For every Table-II workload the full japonica strategy runs twice: as
shipped, and with every consumer of the launches' SE logs — the two
profiling analyses, the TLS dependency check, the commit and the
logged-access count — swapped for its scalar oracle in ``tests/oracles``
at the call site (each oracle reads the launch's ``ColumnarLanes`` as
the interpreter's state dict, through ``as_states``).  The runs must
produce bit-identical array results, the same simulated times and
scalars, equal dependency profiles and the same per-loop modes and
times.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.ir.columnar import ColumnarLanes
from repro.profiler import trace
from repro.tls import engine, privatize
from repro.workloads import ALL_WORKLOADS

from ..oracles import (
    analyze_lanes_scalar,
    as_states,
    check_subloop_scalar,
    commit_scalar,
    estimate_coalescing_scalar,
    logged_accesses_scalar,
)


def _substitute_oracles(monkeypatch) -> Counter:
    """Route every SE-log consumer to its oracle; count the calls."""
    calls: Counter = Counter()

    def counted(name, oracle):
        def run(*args, **kwargs):
            calls[name] += 1
            return oracle(*args, **kwargs)

        return run

    def order(lanes):
        return lanes.order.tolist()

    monkeypatch.setattr(trace, "analyze_lanes", counted(
        "analyze",
        lambda lanes, warp_size=32: analyze_lanes_scalar(
            as_states(lanes), order(lanes), warp_size
        ),
    ))
    monkeypatch.setattr(trace, "estimate_coalescing", counted(
        "coalescing",
        lambda lanes, warp_size=32, floor=0.1: estimate_coalescing_scalar(
            as_states(lanes), order(lanes), warp_size, floor
        ),
    ))
    check = counted(
        "check",
        lambda lanes: check_subloop_scalar(as_states(lanes), order(lanes)),
    )
    monkeypatch.setattr(engine, "check_subloop", check)
    monkeypatch.setattr(privatize, "check_subloop", check)
    monkeypatch.setattr(ColumnarLanes, "commit", counted(
        "commit",
        lambda lanes, storage, iterations: commit_scalar(
            as_states(lanes), storage, iterations
        ),
    ))
    monkeypatch.setattr(ColumnarLanes, "logged_accesses", counted(
        "logged", lambda lanes: logged_accesses_scalar(as_states(lanes))
    ))
    return calls


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_columnar_identity(workload, monkeypatch):
    ctx_prod = workload.make_context()
    r_prod = workload.run("japonica", context=ctx_prod)

    calls = _substitute_oracles(monkeypatch)
    ctx_oracle = workload.make_context()
    r_oracle = workload.run("japonica", context=ctx_oracle)

    assert r_prod.sim_time_s == r_oracle.sim_time_s
    assert r_prod.scalars == r_oracle.scalars
    for name, arr in r_oracle.arrays.items():
        assert np.array_equal(r_prod.arrays[name], arr, equal_nan=True), name

    # dependency profiles (when the run profiled at all) match field for
    # field — the scheduler must see exactly the same evidence
    assert set(ctx_prod.profiles) == set(ctx_oracle.profiles)
    for loop_id, p_oracle in ctx_oracle.profiles.items():
        d_prod = dataclasses.asdict(ctx_prod.profiles[loop_id])
        d_oracle = dataclasses.asdict(p_oracle)
        assert d_prod == d_oracle, loop_id
    if ctx_oracle.profiles:
        assert calls["analyze"] == len(ctx_oracle.profiles)

    # per-loop execution evidence: same modes, same per-loop times
    assert [
        (lid, res.mode, res.sim_time_s) for lid, res in r_prod.loop_results
    ] == [
        (lid, res.mode, res.sim_time_s) for lid, res in r_oracle.loop_results
    ]
