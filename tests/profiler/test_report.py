"""The profile report's records: :class:`DepPair` behaves as the frozen
dataclass it replaced, and copies as itself."""

import copy
import pickle

from repro.profiler.report import DepPair


class TestDepPair:
    def test_repr_eq_and_hash_of_a_frozen_dataclass(self):
        pair = DepPair("x", 1, 3, "true", True)
        assert repr(pair) == (
            "DepPair(array='x', src_iter=1, dst_iter=3, kind='true', "
            "same_warp=True)"
        )
        twin = DepPair("x", 1, 3, "true", True)
        assert pair == twin and hash(pair) == hash(twin)
        assert pair != DepPair("x", 1, 3, "anti", True)
        assert pair != ("x", 1, 3, "true", True)
        assert pair.distance == 2

    def test_copies_as_itself_and_pickles(self):
        pair = DepPair("y", 4, 2, "output", False)
        assert copy.copy(pair) is pair and copy.deepcopy(pair) is pair
        assert pickle.loads(pickle.dumps(pair)) == pair
