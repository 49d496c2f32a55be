"""Recovery-policy tests."""

from repro.profiler.report import DependencyProfile
from repro.tls.recovery import RecoveryAction, decide_recovery


def profile_with(warps):
    p = DependencyProfile(iterations=100)
    p.td_warps = set(warps)
    p.td_pairs = len(warps)
    return p


class TestDecision:
    def test_no_profile_relaunches(self):
        d = decide_recovery(None, violating_warp=3)
        assert d.action is RecoveryAction.RELAUNCH_GPU

    def test_clear_lookahead_relaunches(self):
        p = profile_with({20})
        d = decide_recovery(p, violating_warp=3, lookahead=2)
        assert d.action is RecoveryAction.RELAUNCH_GPU

    def test_td_ahead_goes_cpu(self):
        p = profile_with({5})
        d = decide_recovery(p, violating_warp=4, lookahead=2)
        assert d.action is RecoveryAction.CPU_SEQUENTIAL
        assert d.cpu_warps == 2

    def test_lookahead_window_boundaries(self):
        p = profile_with({7})
        # window is warps [violating+1, violating+lookahead]
        assert (
            decide_recovery(p, 6, lookahead=1).action
            is RecoveryAction.CPU_SEQUENTIAL
        )
        assert (
            decide_recovery(p, 7, lookahead=1).action
            is RecoveryAction.RELAUNCH_GPU
        )

    def test_cpu_warps_at_least_one(self):
        p = profile_with({1})
        d = decide_recovery(p, 0, lookahead=0)
        if d.action is RecoveryAction.CPU_SEQUENTIAL:
            assert d.cpu_warps >= 1


class TestClamping:
    """cpu_warps never overshoots the warps actually remaining."""

    def test_clamped_to_remaining(self):
        p = profile_with({5})
        d = decide_recovery(p, 4, lookahead=8, warps_remaining=3)
        assert d.action is RecoveryAction.CPU_SEQUENTIAL
        assert d.cpu_warps == 3

    def test_single_remaining_warp(self):
        p = profile_with({5})
        d = decide_recovery(p, 4, lookahead=8, warps_remaining=1)
        assert d.action is RecoveryAction.CPU_SEQUENTIAL
        assert d.cpu_warps == 1

    def test_no_clamp_when_plenty_remain(self):
        p = profile_with({5})
        d = decide_recovery(p, 4, lookahead=8, warps_remaining=100)
        assert d.cpu_warps == 8

    def test_default_is_unclamped(self):
        p = profile_with({5})
        assert decide_recovery(p, 4, lookahead=8).cpu_warps == 8

    def test_zero_lookahead_keeps_forward_progress(self):
        # the inspection window floors at one warp, so a TD directly
        # ahead still hands exactly one warp to the CPU — never zero
        p = profile_with({1, 2, 3})
        d = decide_recovery(p, 0, lookahead=0, warps_remaining=5)
        assert d.action is RecoveryAction.CPU_SEQUENTIAL
        assert d.cpu_warps == 1

    def test_clamp_floor_is_one(self):
        # even a degenerate remaining count keeps at least one warp
        p = profile_with({5})
        d = decide_recovery(p, 4, lookahead=8, warps_remaining=0)
        if d.action is RecoveryAction.CPU_SEQUENTIAL:
            assert d.cpu_warps == 1


class TestBuffers:
    def test_metadata_and_bytes_helpers(self):
        # the DC volume and the commit's byte count come off the SE log
        import numpy as np

        from repro.ir.columnar import ColumnarLanes
        from repro.ir.interpreter import AccessRecord, ArrayStorage, LaneSpecState

        storage = ArrayStorage({"x": np.zeros(8)})
        s = LaneSpecState()
        s.reads.append(AccessRecord(0, "R", "x", 0))
        s.writes.append(AccessRecord(1, "W", "x", 1))
        s.buffer[("x", 1)] = 2.0
        lanes = ColumnarLanes.from_states({0: s}, [0], storage)
        assert lanes.logged_accesses() == 2
        assert lanes.commit(storage, [5]) == (0, 0)
        assert storage.arrays["x"][1] == 0.0
        assert lanes.commit(storage, [0]) == (1, 8)
        assert storage.arrays["x"][1] == 2.0
