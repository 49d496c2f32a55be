"""The whole-array references against their per-element loop oracles.

Each rewritten reference must return what its oracle in
``tests/oracles/references.py`` returns: the same keys, and for each
array the same dtype, shape and bytes.  ``array_equal`` would let
``-0.0`` pass for ``0.0`` and a float pass for an equal int.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads import BY_NAME
from repro.workloads.bfs import INF

from ..oracles import LOOP_REFERENCES

NAMES = sorted(LOOP_REFERENCES)
SEEDS = st.integers(0, 2**32 - 1)
SIZES = st.integers(1, 64)

#: each workload's generator knobs, drawn small
KNOBS = {
    "BFS": {"size": SIZES, "degree": st.integers(1, 4),
            "depth": st.integers(0, 6)},
    "CFD": {"size": SIZES, "nnb": st.integers(0, 4),
            "sweeps": st.integers(0, 4)},
    "Guass-Seidel": {"size": SIZES, "sweeps": st.integers(0, 3)},
}


def assert_bitwise(name, binds):
    got = BY_NAME[name].reference(binds)
    want = LOOP_REFERENCES[name](binds)
    assert sorted(got) == sorted(want), name
    for key, w in want.items():
        g = got[key]
        assert (g.dtype, g.shape) == (w.dtype, w.shape), (name, key)
        assert g.tobytes() == w.tobytes(), (name, key)


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
def test_generated_inputs(name, data):
    knobs = data.draw(st.fixed_dictionaries(KNOBS.get(name, {"size": SIZES})))
    binds = BY_NAME[name].bindings(seed=data.draw(SEEDS), **knobs)
    assert_bitwise(name, binds)


@st.composite
def csr_graphs(draw):
    """A CSR graph whose rows may have no edge, with arbitrary starting
    distances (several sources, unreachable nodes, small and INF)."""
    nodes = draw(SIZES)
    degrees = draw(st.lists(st.integers(0, 3), min_size=nodes, max_size=nodes))
    row_start = np.zeros(nodes + 1, dtype=np.int32)
    np.cumsum(degrees, out=row_start[1:])
    edges = int(row_start[-1])
    adj = draw(st.lists(st.integers(0, nodes - 1), min_size=edges,
                        max_size=edges))
    dist = draw(st.lists(st.sampled_from([0, 1, 3, INF]), min_size=nodes,
                         max_size=nodes))
    return {
        "rowStart": row_start,
        "adjList": np.array(adj, dtype=np.int32),
        "dist": np.array(dist, dtype=np.int32),
        "distNew": np.zeros(nodes, dtype=np.int32),
        "n": nodes,
        "maxDepth": draw(st.integers(0, 6)),
    }


@given(binds=csr_graphs())
def test_bfs_graphs_with_empty_rows(binds):
    assert_bitwise("BFS", binds)


@st.composite
def lookback_tables(draw):
    """BlackScholes inputs whose every read lands below, at or above its
    own iteration, or in the never-written upper half of ``audit``."""
    count = draw(SIZES)
    binds = BY_NAME["BlackScholes"].bindings(seed=draw(SEEDS), size=count)
    look = draw(st.lists(st.integers(0, 2 * count - 1), min_size=count,
                         max_size=count))
    binds["lookback"] = np.array(look, dtype=np.int32)
    return binds


@given(binds=lookback_tables())
def test_blackscholes_lookback_tables(binds):
    assert_bitwise("BlackScholes", binds)


class TestDirected:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", NAMES)
    def test_default_size(self, name, n):
        assert_bitwise(name, BY_NAME[name].bindings(n=n))

    def test_bfs_rows_without_edges(self):
        # node 1 has no edge and node 3 only a self-loop, so both stay
        # unreached; node 2's edges reach the source, node 0
        binds = {
            "rowStart": np.array([0, 1, 1, 3, 4], dtype=np.int32),
            "adjList": np.array([2, 0, 3, 3], dtype=np.int32),
            "dist": np.array([0, INF, INF, INF], dtype=np.int32),
            "distNew": np.zeros(4, dtype=np.int32),
            "n": 4,
            "maxDepth": 3,
        }
        assert_bitwise("BFS", binds)
        assert BY_NAME["BFS"].reference(binds)["dist"].tolist() == [
            0, INF, 1, INF,
        ]

    @pytest.mark.parametrize(
        "knobs", [{"depth": 0}, {"size": 1}, {"size": 1, "depth": 0}]
    )
    def test_bfs_edge_knobs(self, knobs):
        assert_bitwise("BFS", BY_NAME["BFS"].bindings(seed=5, **knobs))

    @pytest.mark.parametrize(
        "knobs",
        [{"nnb": 0}, {"sweeps": 0}, {"nnb": 0, "sweeps": 0}, {"size": 1}],
    )
    def test_cfd_edge_knobs(self, knobs):
        assert_bitwise("CFD", BY_NAME["CFD"].bindings(seed=5, **knobs))

    @pytest.mark.parametrize("sweeps", [0, 1, 2])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_gauss_seidel_small_grids(self, size, sweeps):
        binds = BY_NAME["Guass-Seidel"].bindings(
            seed=5, size=size, sweeps=sweeps
        )
        assert_bitwise("Guass-Seidel", binds)

    def test_blackscholes_reads_below_at_and_above(self):
        binds = BY_NAME["BlackScholes"].bindings(seed=5, size=6)
        # iteration i reads: 0 at, 0 below, 3 above, 1 below, 11 upper
        # half, 5 at
        binds["lookback"] = np.array([0, 0, 3, 1, 11, 5], dtype=np.int32)
        assert_bitwise("BlackScholes", binds)
        # only the reads below their own iteration see an audit value
        cold = dict(binds, lookback=np.arange(6, 12, dtype=np.int32))
        ref = BY_NAME["BlackScholes"].reference
        moved = ref(binds)["callOut"] != ref(cold)["callOut"]
        assert moved.tolist() == [False, True, False, True, False, False]
