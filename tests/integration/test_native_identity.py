"""Native-backend acceptance: the tier is an implementation detail.

Differential oracles over all Table-II workloads (ISSUE 8 tentpole
acceptance):

* **Identity** — running with the native backend enabled must change
  *nothing* observable about the simulated run: insight reports
  (critical paths, metrics, phase roll-up) byte-identical to the
  interpreter path at 1 and 4 devices, bit-identical arrays, equal
  scalars.

* **Tiers** — with the backend on, every launch of every workload runs
  compiled (src or lock-step) from its first launch; with it off, none
  runs on src, and every launch the lock-step tier does not take runs
  on the interpreter.

* **Crosscheck** — ``native_crosscheck=True`` runs every launch through
  both the native tier and the interpreter oracle and raises
  :class:`NativeMismatch` on any divergence; a clean pass over every
  workload is the strongest end-to-end guarantee the backend has.

* **Compile fallback** — a kernel the generator cannot compile runs on
  the interpreter with bit-identical results.
"""

from __future__ import annotations

import functools
import json
from collections import Counter

import numpy as np
import pytest

from repro.api import Japonica
from repro.errors import JaponicaError
from repro.ir.native import codegen
from repro.workloads import ALL_WORKLOADS, BY_NAME

DEVICE_COUNTS = (1, 4)


@pytest.fixture(scope="module")
def traced_run():
    """``(name, native, devices) -> (report, result, counters)``: one
    traced run per key, shared by this module's tests and released after
    them."""

    @functools.cache
    def run(name: str, native: bool, devices: int):
        doc, result, obs = insight_doc(BY_NAME[name], native, devices)
        return doc, result, obs.metrics.to_dict()["counters"]

    return run


def insight_doc(workload, native: bool, devices: int) -> tuple:
    """Run once traced and render the insight report deterministically."""
    from repro.obs import Instrumentation
    from repro.obs.insight import analyze_run, run_report

    obs = Instrumentation.recording()
    program = Japonica(obs=obs).compile(workload.source)
    binds = workload.bindings()
    result = program.run(
        workload.method,
        strategy="japonica",
        scheme=workload.scheme,
        context=workload.make_context(obs=obs, devices=devices, native=native),
        **binds,
    )
    timelines = [
        (f"japonica:{lid}", res.timeline)
        for lid, res in result.loop_results
        if res.timeline is not None
    ]
    section = analyze_run(
        timelines, metrics=obs.metrics, tracer=obs.tracer,
        sim_time_s=result.sim_time_s,
    )
    report = run_report({workload.name: section}, meta={"devices": devices})
    return json.dumps(report, indent=1, sort_keys=True), result, obs


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_native_backend_is_identity_on_insight_report(workload, traced_run):
    for devices in DEVICE_COUNTS:
        doc_interp, r_interp, _ = traced_run(workload.name, False, devices)
        doc_native, r_native, _ = traced_run(workload.name, True, devices)
        assert doc_interp == doc_native, (
            f"{workload.name}: the native backend changed the insight "
            f"report at devices={devices}"
        )
        assert r_interp.scalars == r_native.scalars
        for name, arr in r_interp.arrays.items():
            native_arr = r_native.arrays[name]
            assert native_arr.dtype == arr.dtype, (devices, name)
            assert arr.tobytes() == native_arr.tobytes(), (devices, name)


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_native_runs_every_launch_on_src(workload, traced_run):
    """No launch waits on the interpreter for a kernel to get hot: with
    the backend on, every launch is compiled, src or lock-step."""
    for devices in DEVICE_COUNTS:
        _, r_interp, interp = traced_run(workload.name, False, devices)
        _, r_native, native = traced_run(workload.name, True, devices)
        assert native.get("kernel.tier.interp", 0) == 0, devices
        assert interp.get("kernel.tier.src", 0) == 0, devices
        launches = [
            sum(c.get(f"kernel.tier.{t}", 0)
                for t in ("interp", "src", "lockstep"))
            for c in (native, interp)
        ]
        assert launches[0] == launches[1] > 0, devices
        # native off keeps the lock-step tier for straight-line launches
        assert native.get("kernel.tier.lockstep", 0) >= interp.get(
            "kernel.tier.lockstep", 0
        ), devices
        assert native.get("kernel.tier.lockstep.fallbacks", 0) == 0
        assert r_native.sim_time_s == r_interp.sim_time_s, devices


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_native_crosscheck_clean(workload):
    """The interpreter oracle agrees with the native tier launch by
    launch; any divergence would raise NativeMismatch here."""
    result = workload.run("japonica", native_crosscheck=True)
    binds = workload.bindings()
    workload.verify(result, binds)


def test_native_kwarg_on_api():
    """Japonica(native=...) reaches the context the program builds."""
    from repro.workloads import get

    w = get("VectorAdd")
    binds = w.bindings()
    results = []
    for native in (False, True):
        program = Japonica(native=native).compile(w.source)
        results.append(
            program.run(
                w.method, strategy="japonica", scheme=w.scheme, **binds
            )
        )
    assert results[0].sim_time_s == results[1].sim_time_s
    for name, arr in results[0].arrays.items():
        assert np.array_equal(results[1].arrays[name], arr, equal_nan=True)


def test_compile_failure_falls_back_to_interpreter(monkeypatch):
    """A src compile that fails demotes the kernel to the interpreter:
    arrays and simulated time equal a ``native=False`` run, and each
    (kernel, flavor) pair is attempted once per process."""
    attempts = Counter()

    def fail(fn, flavor="direct", fuel=None):
        attempts[fn.fingerprint(), flavor] += 1
        raise JaponicaError("unsupported by the generator")

    # the autouse fixture gives this test its own process-wide cache
    workload = BY_NAME["Crypt"]
    for devices in DEVICE_COUNTS:
        expect = workload.run("japonica", devices=devices, native=False)
        with monkeypatch.context() as patch:
            patch.setattr(codegen, "generate", fail)
            got = workload.run("japonica", devices=devices)
        assert got.sim_time_s == expect.sim_time_s, devices
        assert got.scalars == expect.scalars, devices
        for name, arr in expect.arrays.items():
            assert arr.tobytes() == got.arrays[name].tobytes(), (devices, name)
    assert attempts and set(attempts.values()) == {1}
