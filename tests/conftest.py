"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import signal
import threading

import numpy as np
import pytest

from repro.analysis import analyze_loop
from repro.ir import ArrayStorage, lower_loop_body
from repro.lang import annotated_loops, parse_program

#: Global per-test wall-clock budget (seconds).  A hung test — a worker
#: process that never dies, a socket that never answers — fails with a
#: pointed error instead of wedging the whole suite.  SIGALRM-based, so
#: it needs no third-party plugin; override per test with
#: ``@pytest.mark.timeout_s(N)``.
TEST_TIMEOUT_S = int(os.environ.get("REPRO_TEST_TIMEOUT_S", "180"))

_ALARM_USABLE = (
    hasattr(signal, "SIGALRM")
    and threading.current_thread() is threading.main_thread()
)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "timeout_s(seconds): override the global per-test timeout",
    )


try:  # differential-suite profiles; hypothesis is an optional test dep
    from hypothesis import settings as _hyp_settings

    _hyp_settings.register_profile("dev", max_examples=25, deadline=None)
    _hyp_settings.register_profile("ci", max_examples=200, deadline=None)
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover
    pass


@pytest.fixture(autouse=True)
def _native_backend_isolation():
    """Keep the process-wide kernel cache from leaking across tests.

    ``GLOBAL_KERNEL_CACHE`` survives a test otherwise: kernels compiled
    under one test's settings or monkeypatching get reused by the next.
    Swap in a fresh cache for each test.
    """
    from repro.ir.native import dispatch

    saved_cache = dispatch.GLOBAL_KERNEL_CACHE
    dispatch.GLOBAL_KERNEL_CACHE = dispatch.KernelCache()
    try:
        yield
    finally:
        dispatch.GLOBAL_KERNEL_CACHE = saved_cache


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not _ALARM_USABLE:
        yield
        return
    marker = item.get_closest_marker("timeout_s")
    budget = int(marker.args[0]) if marker and marker.args else TEST_TIMEOUT_S

    def on_alarm(signum, frame):
        pytest.fail(
            f"test exceeded the {budget}s wall-clock budget", pytrace=False
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(budget)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def first_loop(source: str, method: str | None = None):
    """Parse source, return (method AST, first annotated loop)."""
    cls = parse_program(source)
    m = cls.methods[0] if method is None else cls.method(method)
    loops = annotated_loops(m)
    assert loops, "source has no annotated loop"
    return m, loops[0]


def analyzed(source: str, method: str | None = None):
    """Parse + statically analyze the first annotated loop."""
    m, loop = first_loop(source, method)
    return analyze_loop(m, loop)


def lowered(source: str, method: str | None = None, name: str = "k"):
    """Parse, analyze and lower the first annotated loop to IR."""
    analysis = analyzed(source, method)
    fn = lower_loop_body(
        analysis.info.loop, analysis.outer_types, analysis.info.index, name
    )
    return analysis, fn


def se_columns(lanes, order=None):
    """Production SE log of hand-built ``{iteration: LaneSpecState}`` lanes.

    Buffered values take float64, the dtype of a storage sized to the
    largest cell each array touches; ``order`` defaults to the mapping's
    own iteration order.
    """
    from repro.ir.columnar import ColumnarLanes

    sizes: dict[str, int] = {}
    for state in lanes.values():
        for rec in state.reads + state.writes:
            sizes[rec.array] = max(sizes.get(rec.array, 0), rec.flat + 1)
    storage = ArrayStorage({name: np.zeros(k) for name, k in sizes.items()})
    return ColumnarLanes.from_states(
        lanes, list(lanes) if order is None else order, storage
    )


VEC_SRC = """
class Vec {
  static void run(double[] a, double[] b, double[] c, int n) {
    /* acc parallel copyin(a[0:n-1], b[0:n-1]) copyout(c[0:n-1]) */
    for (int i = 0; i < n; i++) {
      c[i] = a[i] * 2.0 + b[i];
    }
  }
}
"""

SEIDEL_SRC = """
class Seidel {
  static void run(double[] x, double[] b, int n) {
    /* acc parallel */
    for (int i = 1; i < n - 1; i++) {
      x[i] = 0.5 * (x[i - 1] + x[i + 1]) + b[i];
    }
  }
}
"""

SCRATCH_SRC = """
class Scratch {
  static void run(double[] src, double[] dst, double[] tmp, int n) {
    /* acc parallel */
    for (int i = 0; i < n; i++) {
      tmp[(i * 2) % 2] = src[i] * 2.0;
      tmp[(i * 2 + 1) % 2] = src[i] + 1.0;
      dst[i] = tmp[(i * 2) % 2] + tmp[(i * 2 + 1) % 2];
    }
  }
}
"""

INDIRECT_SRC = """
class Indirect {
  static void run(double[] v, int[] idx, double[] out, int n) {
    /* acc parallel */
    for (int i = 0; i < n; i++) {
      out[i] = v[idx[i]] + 1.0;
    }
  }
}
"""


def register_all(device, storage):
    """Allocate+validate every array on the simulated device (tests drive
    the execution engines directly, without the scheduler's registration)."""
    for name, arr in storage.arrays.items():
        if name not in device.memory.allocations:
            device.memory.copyin(name, arr.shape, arr.dtype)
        else:
            device.memory.allocations[name].valid = True


@pytest.fixture
def vec_storage():
    """Small storage bound for VEC_SRC."""
    rng = np.random.default_rng(7)
    n = 64
    return (
        ArrayStorage(
            {
                "a": rng.standard_normal(n),
                "b": rng.standard_normal(n),
                "c": np.zeros(n),
            }
        ),
        {"n": n},
        n,
    )


@pytest.fixture
def symmetric_ctx():
    """Context on the symmetric platform (boundary = 0.5)."""
    from repro.runtime.platform import symmetric_platform
    from repro.scheduler.context import ExecutionContext

    return ExecutionContext(symmetric_platform())


@pytest.fixture
def paper_ctx():
    from repro.scheduler.context import ExecutionContext

    return ExecutionContext()
