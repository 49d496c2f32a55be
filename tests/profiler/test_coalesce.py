"""Coalescing-estimation tests.

Every case runs through production (``estimate_coalescing`` on the
lanes' ``from_states`` columns) and the scalar oracle (on the dict
itself), and the two estimates must be equal.
"""

import pytest

from repro.ir.interpreter import AccessRecord, LaneSpecState
from repro.profiler.coalesce import estimate_coalescing

from ..conftest import se_columns
from ..oracles import estimate_coalescing_scalar


def lane_with(accesses):
    """accesses: list of (op, kind, array, flat); writes are buffered."""
    state = LaneSpecState()
    for op, kind, array, flat in accesses:
        rec = AccessRecord(op, kind, array, flat)
        (state.reads if kind == "R" else state.writes).append(rec)
        if kind == "W":
            state.buffer[(array, flat)] = 0.0
    return state


def estimate(lanes, order, warp_size=32, floor=0.1):
    """Production estimate for ``lanes``, held equal to the scalar oracle."""
    est = estimate_coalescing(se_columns(lanes, order), warp_size, floor)
    assert est == estimate_coalescing_scalar(lanes, order, warp_size, floor)
    return est


class TestEstimate:
    def test_unit_stride_is_perfect(self):
        lanes = {i: lane_with([(0, "R", "a", i)]) for i in range(64)}
        assert estimate(lanes, list(range(64))) == 1.0

    def test_broadcast_is_perfect(self):
        lanes = {i: lane_with([(0, "R", "k", 0)]) for i in range(64)}
        assert estimate(lanes, list(range(64))) == 1.0

    def test_large_stride_poor(self):
        lanes = {i: lane_with([(0, "R", "a", i * 128)]) for i in range(64)}
        est = estimate(lanes, list(range(64)))
        assert est == pytest.approx(0.1)  # floor

    def test_mixed_accesses(self):
        lanes = {
            i: lane_with([(0, "R", "a", i), (1, "R", "b", i * 100)])
            for i in range(32)
        }
        est = estimate(lanes, list(range(32)))
        assert est == pytest.approx(0.5)

    def test_no_comparable_pairs_defaults_to_one(self):
        lanes = {0: lane_with([(0, "R", "a", 0)])}
        assert estimate(lanes, [0]) == 1.0

    def test_cross_warp_pairs_ignored(self):
        # lanes 31 and 32 are adjacent positions but different warps:
        # their huge address delta must not count against coalescing
        lanes = {i: lane_with([(0, "R", "a", i)]) for i in range(32)}
        lanes[32] = lane_with([(0, "R", "a", 1_000_000)])
        est = estimate(lanes, list(range(33)), warp_size=32)
        assert est == 1.0  # the bad pair spans a warp boundary

    def test_floor_respected(self):
        lanes = {i: lane_with([(0, "W", "a", (i * 7919) % 65536)]) for i in range(32)}
        assert estimate(lanes, list(range(32)), floor=0.25) >= 0.25


class TestSlotTableFallback:
    """The slot table gives way to a sort when it would outgrow the log;
    both must agree with the oracle."""

    def test_overflowing_slot_key_falls_back(self):
        # op stamps near 2**62: pos * span + op would overflow int64;
        # lane 32 starts a warp, so its far address spoils no pair of 31
        lanes = {
            i: lane_with(
                [(2**62, "R", "a", i), (2**62 + 1, "R", "b", i * 100)]
            )
            for i in range(40)
        }
        lanes[32] = lane_with([(2**62, "R", "a", 10**6)])
        assert estimate(lanes, list(range(40))) == pytest.approx(37 / 75)

    def test_spread_op_stamps_fall_back(self):
        # one lane's stamps run far past the others', so a dense table
        # would hold ~40 * 5000 slots for 80 accesses
        lanes = {
            i: lane_with([(0, "R", "a", i), (1, "W", "b", i * 100)])
            for i in range(40)
        }
        lanes[3] = lane_with([(0, "R", "a", 3), (5000, "W", "b", 300)])
        lanes[4] = lane_with([(0, "R", "a", 4), (5000, "W", "b", 401)])
        est = estimate(lanes, list(range(40)))
        assert 0.5 < est < 1.0
