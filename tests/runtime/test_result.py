"""ExecutionResult and verification-helper tests."""

import numpy as np
import pytest

from repro.ir.interpreter import Counts
from repro.runtime.result import ExecutionResult, verify_same_results


class TestVerify:
    def test_bitwise_equal_passes(self):
        a = np.array([1.0, 2.0, np.nan])
        verify_same_results({"x": a.copy()}, {"x": a.copy()})

    def test_difference_reported_with_location(self):
        got = {"x": np.array([1.0, 2.0, 3.0])}
        want = {"x": np.array([1.0, 9.0, 3.0])}
        with pytest.raises(AssertionError, match="x"):
            verify_same_results(got, want)

    def test_missing_array(self):
        with pytest.raises(AssertionError, match="missing"):
            verify_same_results({}, {"x": np.zeros(1)})

    def test_shape_mismatch(self):
        with pytest.raises(AssertionError, match="shape"):
            verify_same_results(
                {"x": np.zeros(2)}, {"x": np.zeros(3)}
            )

    def test_tolerance_mode(self):
        got = {"x": np.array([1.0 + 1e-14])}
        want = {"x": np.array([1.0])}
        with pytest.raises(AssertionError):
            verify_same_results(got, want)  # bitwise fails
        verify_same_results(got, want, rtol=1e-12)  # tolerant passes

    def test_nan_in_the_same_cell_passes(self):
        a = np.array([np.nan, 1.0])
        verify_same_results({"x": a.copy()}, {"x": a.copy()})

    def test_nan_against_a_number_fails(self):
        got = {"x": np.array([1.0, np.nan])}
        want = {"x": np.array([1.0, 2.0])}
        with pytest.raises(AssertionError, match=r"at \(1,\)"):
            verify_same_results(got, want)

    def test_negative_zero_equals_zero(self):
        verify_same_results({"x": np.array([-0.0])}, {"x": np.array([0.0])})

    def test_message_prints_plain_ints(self):
        got = {"x": np.array([[5.0, 1.0]])}
        want = {"x": np.array([[4.0, 1.0]])}
        with pytest.raises(AssertionError) as info:
            verify_same_results(got, want)
        assert str(info.value).endswith("(first difference at (0, 0))")
        with pytest.raises(AssertionError, match=r"at \(0,\)\)$"):
            verify_same_results({"x": np.zeros(2)}, {"x": np.ones(2)})

    def test_extra_arrays_in_got_ignored(self):
        verify_same_results(
            {"x": np.zeros(1), "extra": np.ones(1)}, {"x": np.zeros(1)}
        )


class TestExecutionResult:
    def test_speedup_over(self):
        fast = ExecutionResult(arrays={}, sim_time_s=1.0)
        slow = ExecutionResult(arrays={}, sim_time_s=4.0)
        assert fast.speedup_over(slow) == 4.0
        assert slow.speedup_over(fast) == 0.25

    def test_zero_time_speedup(self):
        zero = ExecutionResult(arrays={}, sim_time_s=0.0)
        other = ExecutionResult(arrays={}, sim_time_s=1.0)
        assert zero.speedup_over(other) == float("inf")

    def test_ms_property(self):
        res = ExecutionResult(arrays={}, sim_time_s=0.25)
        assert res.sim_time_ms == 250.0

    def test_default_counts(self):
        res = ExecutionResult(arrays={}, sim_time_s=0.0)
        assert res.counts == Counts()
