"""DC-phase tests with a brute-force oracle property.

Every case runs through production (``check_subloop`` on the lanes'
``from_states`` columns) and the scalar oracle (on the dict itself), and
the two must report the same violations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.interpreter import AccessRecord, LaneSpecState
from repro.tls.depcheck import check_subloop

from ..conftest import se_columns
from ..oracles import check_subloop_scalar


def lane(reads=(), writes=()):
    state = LaneSpecState()
    op = 0
    for array, flat in reads:
        state.reads.append(AccessRecord(op, "R", array, flat))
        op += 1
    for array, flat in writes:
        state.writes.append(AccessRecord(op, "W", array, flat))
        state.buffer[(array, flat)] = 1.0
        op += 1
    return state


def check(lanes, order):
    """Production DC result for ``lanes``, held equal to the scalar oracle."""
    dc = check_subloop(se_columns(lanes, order))
    oracle = check_subloop_scalar(lanes, order)
    assert dc.violations == oracle.violations
    assert dc.first_violation_pos == oracle.first_violation_pos
    return dc


class TestCheck:
    def test_clean_subloop(self):
        lanes = {i: lane(writes=[("x", i)]) for i in range(8)}
        assert check(lanes, list(range(8))).ok

    def test_raw_violation_found(self):
        lanes = {
            0: lane(writes=[("x", 3)]),
            1: lane(reads=[("x", 3)]),
        }
        dc = check(lanes, [0, 1])
        assert not dc.ok
        v = dc.violations[0]
        assert (v.iteration, v.src_iteration) == (1, 0)
        assert dc.first_violation_pos == 1

    def test_war_is_not_a_violation(self):
        # read at 0, write at 1: buffered read saw the pre-state, correct
        lanes = {
            0: lane(reads=[("x", 3)]),
            1: lane(writes=[("x", 3)]),
        }
        assert check(lanes, [0, 1]).ok

    def test_waw_is_not_a_violation(self):
        lanes = {i: lane(writes=[("x", 0)]) for i in range(4)}
        assert check(lanes, list(range(4))).ok

    def test_earliest_violation_position(self):
        lanes = {
            0: lane(writes=[("x", 0), ("x", 5)]),
            1: lane(),
            2: lane(reads=[("x", 5)]),
            3: lane(reads=[("x", 0)]),
        }
        dc = check(lanes, [0, 1, 2, 3])
        assert dc.first_violation_pos == 2
        assert dc.violating_iterations == {2, 3}

    def test_one_violation_per_iteration(self):
        lanes = {
            0: lane(writes=[("x", 0), ("x", 1)]),
            1: lane(reads=[("x", 0), ("x", 1)]),
        }
        dc = check(lanes, [0, 1])
        assert len(dc.violations) == 1

    def test_position_zero_cannot_violate(self):
        # the first iteration of a sub-loop has no earlier writer
        lanes = {
            7: lane(reads=[("x", 0)]),
            8: lane(writes=[("x", 0)]),
        }
        # order is [7, 8]: 7 reads before 8 writes -> fine
        assert check(lanes, [7, 8]).ok

    def test_order_is_what_matters_not_ids(self):
        lanes = {
            7: lane(reads=[("x", 0)]),
            8: lane(writes=[("x", 0)]),
        }
        dc = check(lanes, [8, 7])  # 8 writes first in order
        assert not dc.ok
        assert dc.violations[0].iteration == 7


@given(n=st.integers(2, 20), seed=st.integers(0, 99_999))
@settings(max_examples=50, deadline=None)
def test_violations_match_oracle(n, seed):
    # beside the written array "m", each lane reads array "ro", which no
    # lane writes, at the same flats before and after its reads of "m":
    # "ro" is seen first, so it takes array id 0 and "m" id 1
    rng = np.random.default_rng(seed)
    cells = 5
    lanes = {}
    reads_of, writes_of = {}, {}
    for i in range(n):
        r = {("m", int(c)) for c in rng.integers(0, cells, rng.integers(0, 3))}
        w = {("m", int(c)) for c in rng.integers(0, cells, rng.integers(0, 3))}
        reads_of[i], writes_of[i] = r, w
        ro = [("ro", c) for _m, c in sorted(r)]
        lanes[i] = lane(reads=ro + sorted(r) + ro[::-1], writes=sorted(w))

    oracle = set()
    for j in range(n):
        for i in range(j):
            if writes_of[i] & reads_of[j]:
                oracle.add(j)
    order = list(range(n))
    dc = check(lanes, order)
    scalar = check_subloop_scalar(lanes, order)
    assert dc.violations == scalar.violations
    assert dc.first_violation_pos == scalar.first_violation_pos
    assert all(v.array == "m" for v in dc.violations)
    assert dc.violating_iterations == oracle
    if oracle:
        assert dc.first_violation_pos == min(oracle)
