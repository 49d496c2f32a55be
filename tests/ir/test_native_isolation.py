"""Regression: native-backend state must not leak between tests.

The process-wide ``GLOBAL_KERNEL_CACHE`` used to escape test boundaries:
a test that filled or replaced it silently changed every later test in
the run.  The autouse ``_native_backend_isolation`` fixture in
``tests/conftest.py`` now swaps in a fresh cache around each test; these
tests deliberately poison the global and rely on pytest's in-file
ordering to prove the next test starts clean.
"""

from __future__ import annotations

from repro.ir.native import dispatch


def test_poison_global_kernel_cache():
    # simulate a badly-behaved test: replace the process-wide cache
    # with a pre-filled one
    poisoned = dispatch.KernelCache()
    poisoned.compiles["src"] = 999
    dispatch.GLOBAL_KERNEL_CACHE = poisoned
    assert dispatch.GLOBAL_KERNEL_CACHE.compiles["src"] == 999


def test_next_test_sees_pristine_state():
    # the global kernel cache is no longer the poisoned object
    assert dispatch.GLOBAL_KERNEL_CACHE.compiles["src"] != 999, (
        "poisoned GLOBAL_KERNEL_CACHE leaked from the previous test"
    )


def test_each_test_gets_a_fresh_kernel_cache():
    # the fixture installs a fresh cache per test: dispatchers built
    # with the default must never observe another test's compilations
    cache = dispatch.GLOBAL_KERNEL_CACHE
    assert all(v == 0 for v in cache.compiles.values())
    cache.compiles["interp"] = 7


def test_fresh_cache_does_not_carry_counts():
    assert dispatch.GLOBAL_KERNEL_CACHE.compiles["interp"] == 0


def test_default_dispatcher_uses_current_global(monkeypatch):
    d = dispatch.KernelDispatcher()
    assert d.cache is dispatch.GLOBAL_KERNEL_CACHE
