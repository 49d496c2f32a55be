"""Workload definition tests: inputs, references, metadata."""

import numpy as np
import pytest

from repro.workloads import ALL_WORKLOADS, BY_NAME, get
from repro.workloads.crypt import cipher, decrypt_key


class TestRegistry:
    def test_eleven_workloads(self):
        assert len(ALL_WORKLOADS) == 11

    def test_names_match_table2(self):
        assert list(BY_NAME) == [
            "GEMM", "VectorAdd", "BFS", "MVT", "Guass-Seidel", "CFD",
            "Sepia", "BlackScholes", "BICG", "2MM", "Crypt",
        ]

    def test_get(self):
        assert get("GEMM").origin == "PolyBench"
        with pytest.raises(KeyError):
            get("NotABenchmark")

    def test_schemes_match_table2(self):
        stealing = {"BICG", "2MM", "Crypt"}
        for w in ALL_WORKLOADS:
            assert w.scheme == ("stealing" if w.name in stealing else "sharing")

    def test_every_workload_has_calibration(self):
        for w in ALL_WORKLOADS:
            assert w.java_efficiency is not None, w.name
            assert w.work_scale >= 1.0
            assert w.paper_problem


class TestInputs:
    def test_bindings_cover_method_params(self):
        from repro.lang import parse_program

        for w in ALL_WORKLOADS:
            cls = parse_program(w.source)
            params = {p.name for p in cls.method(w.method).params}
            binds = w.bindings()
            assert set(binds) == params, w.name

    def test_bindings_deterministic_by_seed(self):
        w = BY_NAME["VectorAdd"]
        b1, b2 = w.bindings(seed=5), w.bindings(seed=5)
        assert np.array_equal(b1["a"], b2["a"])
        b3 = w.bindings(seed=6)
        assert not np.array_equal(b1["a"], b3["a"])

    def test_n_scales_problem(self):
        w = BY_NAME["VectorAdd"]
        assert w.bindings(n=2)["n"] == 2 * w.bindings(n=1)["n"]


class TestCrypt:
    def test_key_schedule_inverts(self):
        rng = np.random.default_rng(0)
        Z = rng.integers(0, 65536, 52).astype(np.int64)
        blocks = rng.integers(0, 65536, (64, 4)).astype(np.int64)
        assert np.array_equal(cipher(cipher(blocks, Z), decrypt_key(Z)), blocks)

    def test_values_are_16_bit(self):
        rng = np.random.default_rng(1)
        Z = rng.integers(0, 65536, 52).astype(np.int64)
        blocks = rng.integers(0, 65536, (32, 4)).astype(np.int64)
        enc = cipher(blocks, Z)
        assert enc.min() >= 0 and enc.max() < 65536

    def test_source_has_16_subloops(self):
        from repro.lang import annotated_loops, parse_program

        w = BY_NAME["Crypt"]
        cls = parse_program(w.source)
        assert len(annotated_loops(cls.method("run"))) == 16


class TestBicgSource:
    def test_eight_subloops(self):
        from repro.lang import annotated_loops, parse_program

        cls = parse_program(BY_NAME["BICG"].source)
        assert len(annotated_loops(cls.method("run"))) == 8


class TestBlackScholesLookback:
    def test_density_construction(self):
        from repro.workloads.blackscholes import (
            DISTANCE,
            PERIOD,
            make_lookback,
        )

        n = 5120
        look = make_lookback(n)
        hot = np.where(look < n)[0]
        # roughly one TD target per PERIOD iterations beyond DISTANCE
        assert len(hot) == pytest.approx((n - DISTANCE) / PERIOD, abs=2)
        density = len(hot) / (n - 1)
        assert 0.005 < density < 0.02  # paper: ~0.012

    def test_cold_entries_point_to_upper_half(self):
        from repro.workloads.blackscholes import make_lookback

        n = 1000
        look = make_lookback(n)
        cold = look[look >= n]
        assert (cold >= n).all() and (cold < 2 * n).all()


class TestReferences:
    @pytest.mark.parametrize("name", [w.name for w in ALL_WORKLOADS])
    def test_reference_is_pure(self, name):
        w = BY_NAME[name]
        binds = w.bindings()
        snapshot = {
            k: (v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in binds.items()
        }
        w.reference(binds)
        for k, v in snapshot.items():
            if isinstance(v, np.ndarray):
                assert np.array_equal(binds[k], v), (name, k)
