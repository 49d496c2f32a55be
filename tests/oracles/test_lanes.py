"""The oracle-side adapter: a launch's columns read back as the
interpreter's ``{index: LaneSpecState}`` dict."""

import numpy as np

from repro.ir import ArrayStorage
from repro.ir.columnar import ColumnarLanes
from repro.ir.interpreter import AccessRecord, LaneSpecState

from .lanes import as_states


def _state(reads=(), writes=(), buffer=()):
    """A lane's state from ``(op, array, flat)`` reads and writes."""
    return LaneSpecState(
        buffer=dict(buffer),
        reads=[AccessRecord(op, "R", a, f) for op, a, f in reads],
        writes=[AccessRecord(op, "W", a, f) for op, a, f in writes],
    )


class TestAsStates:
    def test_round_trips_from_states(self):
        lanes = {
            # a cell stored twice keeps its last value
            4: _state(reads=[(0, "a", 0)], writes=[(1, "b", 3), (2, "b", 3)],
                      buffer={("b", 3): 2.0}),
            # a lane that did not run (7) has no state
            9: _state(writes=[(0, "a", 1)], buffer={("a", 1): 5.0}),
        }
        storage = ArrayStorage({"a": np.zeros(2), "b": np.zeros(4)})
        cols = ColumnarLanes.from_states(lanes, [4, 7, 9], storage)
        assert cols.present.tolist() == [True, False, True]
        states = as_states(cols)
        assert list(states) == [4, 9]
        for it, state in lanes.items():
            assert states[it].reads == state.reads
            assert states[it].writes == state.writes
            assert states[it].buffer == state.buffer

    def test_empty_launch(self):
        cols = ColumnarLanes.from_states({}, [], ArrayStorage({}))
        assert as_states(cols) == {}
