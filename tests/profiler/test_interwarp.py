"""Inter-warp analysis tests."""

from repro.profiler.interwarp import next_warps_clear
from repro.profiler.report import DependencyProfile


def profile_with_td_warps(warps):
    p = DependencyProfile(iterations=1000)
    p.td_warps = set(warps)
    p.td_pairs = len(warps)
    return p


class TestInterwarp:
    def test_clear_window(self):
        p = profile_with_td_warps({10})
        assert next_warps_clear(p, 0, 5)
        assert not next_warps_clear(p, 8, 5)
        assert next_warps_clear(p, 11, 5)

    def test_lookahead_minimum_one(self):
        p = profile_with_td_warps({3})
        assert not next_warps_clear(p, 3, 0)
