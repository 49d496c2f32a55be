"""Execution results: functional outputs plus simulated-time accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..faults.resilience import ResilienceReport
from ..ir.interpreter import Counts
from .clock import Timeline


@dataclass
class ExecutionResult:
    """Outcome of running one loop (or a whole application plan).

    ``arrays`` holds the final host state of every array the execution
    touched.  ``sim_time_s`` is the simulated wall-clock time, including
    host<->device transfers, exactly as the paper measures ("we take all
    the wall-clock time into consideration, which includes the time taken
    to transfer data").
    """

    arrays: dict[str, np.ndarray]
    sim_time_s: float
    counts: Counts = field(default_factory=Counts)
    timeline: Optional[Timeline] = None
    mode: str = ""
    detail: dict = field(default_factory=dict)
    #: what the resilience layer did during this execution (fault
    #: injection only; None when no fault plane was active)
    resilience: Optional["ResilienceReport"] = None

    @property
    def sim_time_ms(self) -> float:
        return self.sim_time_s * 1e3

    def speedup_over(self, other: "ExecutionResult") -> float:
        """other.time / self.time — how much faster this result is."""
        if self.sim_time_s <= 0:
            return float("inf")
        return other.sim_time_s / self.sim_time_s


def verify_same_results(
    got: dict[str, np.ndarray],
    expected: dict[str, np.ndarray],
    rtol: float = 0.0,
    atol: float = 0.0,
) -> None:
    """Assert two array-state dicts are (bitwise, by default) identical.

    NaN equals NaN, and ``-0.0`` equals ``0.0``.  Arrays of ``got`` that
    ``expected`` does not name are ignored.  Raises AssertionError naming
    the first differing array.
    """
    for name in sorted(expected):
        if name not in got:
            raise AssertionError(f"missing array {name!r} in result")
        a, b = got[name], expected[name]
        if a.shape != b.shape:
            raise AssertionError(
                f"array {name!r}: shape {a.shape} != expected {b.shape}"
            )
        if rtol == 0.0 and atol == 0.0:
            # the plain comparison is several times cheaper, and a pass
            # of it implies a pass of the NaN-aware one
            same = np.array_equal(a, b) or np.array_equal(a, b, equal_nan=True)
        else:
            same = np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=True)
        if not same:
            diff = np.argwhere(
                ~np.isclose(a, b, rtol=rtol, atol=atol, equal_nan=True)
            )
            where = tuple(int(x) for x in diff[0]) if len(diff) else "?"
            raise AssertionError(
                f"array {name!r} differs from sequential reference "
                f"(first difference at {where})"
            )
