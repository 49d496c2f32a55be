"""SD3-style stride compression tests: the oracle's greedy compressor,
and production's pattern count held to it."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.profiler.strides import compression_ratio, pattern_count

from ..conftest import se_columns
from ..oracles import compression_ratio_scalar
from ..oracles.strides import StridePattern, compress_addresses, compress_lane


class TestCompression:
    def test_unit_stride_run(self):
        out = compress_addresses(list(range(100, 200)))
        assert out == [StridePattern(100, 1, 100)]

    def test_strided_run(self):
        out = compress_addresses([0, 8, 16, 24])
        assert out == [StridePattern(0, 8, 4)]

    def test_negative_stride(self):
        out = compress_addresses([30, 20, 10])
        assert out == [StridePattern(30, -10, 3)]
        assert out[0].lo == 10 and out[0].hi == 30

    def test_irregular_falls_apart(self):
        out = compress_addresses([5, 100, 3, 77])
        assert len(out) >= 2

    def test_stride_change_splits(self):
        out = compress_addresses([0, 1, 2, 10, 20, 30])
        assert out == [StridePattern(0, 1, 3), StridePattern(10, 10, 3)]

    def test_duplicates_collapse(self):
        out = compress_addresses([7, 7, 7, 7])
        assert out == [StridePattern(7, 0, 1)]

    def test_empty(self):
        assert compress_addresses([]) == []

    def test_single(self):
        assert compress_addresses([42]) == [StridePattern(42, 0, 1)]

    @given(st.lists(st.integers(0, 10_000), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_compression_is_lossless_as_a_set(self, addrs):
        patterns = compress_addresses(addrs)
        covered = set()
        for p in patterns:
            covered.update(p.addresses())
        assert covered == set(addrs)


@st.composite
def _streams(draw):
    """Address streams mixing strided runs, repeats and noise."""
    out = []
    for _ in range(draw(st.integers(1, 5))):
        addrs: list[int] = []
        for _ in range(draw(st.integers(1, 4))):
            base = draw(st.integers(-8, 8))
            stride = draw(st.integers(-3, 3))
            count = draw(st.integers(1, 6))
            addrs += [base + k * stride for k in range(count)]
        out.append(addrs)
    return out


class TestPatternCount:
    """Production counts the oracle compressor's patterns per stream
    without building them."""

    @given(_streams())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_greedy_compressor(self, streams):
        stream = np.repeat(np.arange(len(streams)), [len(s) for s in streams])
        addrs = np.array([a for s in streams for a in s], dtype=np.int64)
        want = sum(len(compress_addresses(s)) for s in streams)
        assert pattern_count(stream, addrs) == want

    @given(st.lists(
        st.lists(st.integers(-4, 4), min_size=1, max_size=14), max_size=6
    ))
    @settings(max_examples=300, deadline=None)
    def test_matches_on_noise(self, streams):
        stream = np.repeat(np.arange(len(streams)), [len(s) for s in streams])
        addrs = np.array([a for s in streams for a in s], dtype=np.int64)
        want = sum(len(compress_addresses(s)) for s in streams)
        assert pattern_count(stream, addrs) == want

    def test_documented_cases(self):
        # a run entered a step late, a skipped lone step, a repeat run,
        # a duplicate pattern and a lone address
        streams = [[0, 1, 2, 4, 6, 8], [0, 1, 2, 10, 11], [5, 7, 7, 7],
                   [0, 1, 0, 1], [9]]
        stream = np.repeat(np.arange(5), [len(s) for s in streams])
        addrs = np.array([a for s in streams for a in s], dtype=np.int64)
        assert [len(compress_addresses(s)) for s in streams] == [
            2, 2, 2, 1, 1
        ]
        assert pattern_count(stream, addrs) == 8
        assert pattern_count(stream[:0], addrs[:0]) == 0


class TestRatio:
    def test_profiled_affine_loop_compresses_well(self):
        from repro.gpusim.device import GpuDevice
        from repro.ir import ArrayStorage
        from repro.profiler.trace import profile_loop
        from repro.runtime.costmodel import CostModel
        from repro.runtime.platform import paper_platform

        from ..conftest import lowered

        # each iteration touches a strided row: compresses to 2 patterns
        src = """
        class T { static void f(double[][] M, double[] out, int n) {
          /* acc parallel */
          for (int i = 0; i < n; i++) {
            double s = 0.0;
            for (int j = 0; j < n; j++) { s += M[i][j]; }
            out[(i * 1) % 64] = s;
          }
        } }
        """
        _, fn = lowered(src)
        platform = paper_platform()
        device = GpuDevice(platform.gpu, CostModel(platform))
        n = 64
        storage = ArrayStorage(
            {"M": np.ones((n, n)), "out": np.zeros(64)}
        )
        run = profile_loop(device, fn, range(n), {"n": n}, storage)
        # 64 row reads + 1 write per iteration -> ~2 patterns
        assert run.profile.compression_ratio > 10

    def test_empty_lanes(self):
        assert compression_ratio(se_columns({})) == 1.0
        assert compression_ratio_scalar({}) == 1.0

    def test_compress_lane(self):
        assert compress_lane([0, 1, 2, 3], [100]) == 2
