"""Production SE-log analyses vs. the scalar oracles: observational identity.

Every buffered launch returns one speculative-log format,
:class:`~repro.ir.columnar.ColumnarLanes`, which the lock-step SE kernel
builds for straight-line kernels and kernels with control flow alike,
all lanes at once under an active-lane mask.  The hard contract is that
production is *observationally identical* to the per-record oracles in
``tests/oracles`` run on the interpreter's own ``{index: LaneSpecState}``
output: a ``DependencyProfile`` equal field for field, the same TLS
violations, the same logged-access volume, and bit-identical memory
after committing the speculative buffers.

The suite drives randomized parametrized kernels (hypothesis) through
both sides, and pins ``from_states``, the interpreter's adapter to the
columns, with directed cases.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.warp import divergence_factor
from repro.ir import ArrayStorage
from repro.ir.columnar import ColumnarLanes
from repro.ir.interpreter import AccessRecord, LaneSpecState
from repro.profiler.coalesce import estimate_coalescing
from repro.profiler.density import analyze_lanes
from repro.profiler.trace import (
    ANALYSIS_COST_PER_ACCESS,
    INSTRUMENTATION_FACTOR,
    profile_loop,
)
from repro.scheduler.context import ExecutionContext
from repro.tls.depcheck import check_subloop

from ..conftest import lowered
from ..oracles import (
    analyze_lanes_scalar,
    check_subloop_scalar,
    commit_scalar,
    estimate_coalescing_scalar,
    first_seen_codes,
    interpreter_lanes,
    logged_accesses_scalar,
)

# ---------------------------------------------------------------------------
# Randomized kernel templates.  Strides/offsets are drawn by hypothesis;
# modular addressing keeps every access in bounds while letting
# collisions produce RAW/WAR/WAW patterns across iterations.  Templates
# 0-4 are straight-line; 5-6 have control flow (divergent lanes).
# ---------------------------------------------------------------------------

RAW_CHAIN = """
class T {{ static void f(double[] a, double[] b, int n) {{
  /* acc parallel */
  for (int i = 0; i < n; i++) {{
    a[(i * {s} + {o}) % n] = a[(i * {t} + {p}) % n] + b[i];
  }}
}} }}
"""

SCATTER_WAW = """
class T {{ static void f(double[] c, double[] b, int n, int m) {{
  /* acc parallel */
  for (int i = 0; i < n; i++) {{
    c[(i * {s} + {o}) % m] = b[i] * 2.0 + c[(i + {p}) % m];
  }}
}} }}
"""

GATHER = """
class T {{ static void f(double[] v, int[] idx, double[] out, int n) {{
  /* acc parallel */
  for (int i = 0; i < n; i++) {{
    out[(i + {o}) % n] = v[idx[i]] + v[(i + {p}) % n];
  }}
}} }}
"""

SCRATCH_REUSE = """
class T {{ static void f(double[] t, double[] b, double[] d, int n) {{
  /* acc parallel */
  for (int i = 0; i < n; i++) {{
    t[i % {m}] = b[i];
    t[i % {m}] = t[i % {m}] + 1.0;
    d[i] = t[i % {m}] * 0.5;
  }}
}} }}
"""

INT_MIX = """
class T {{ static void f(int[] x, int[] y, int n) {{
  /* acc parallel */
  for (int i = 0; i < n; i++) {{
    int w = x[(i * {s} + {o}) % n] * 1103515245 + 12345;
    y[(i * {t}) % n] = (w ^ (w >>> {k})) % 1000 + y[i % n];
  }}
}} }}
"""

# a branch on loaded data guards the stores; the taken side stores one
# cell twice (the second store reads the first back from the buffer)
GUARDED_STORE = """
class T {{ static void f(double[] a, double[] b, int n) {{
  /* acc parallel */
  for (int i = 0; i < n; i++) {{
    double v = a[(i * {s} + {o}) % n];
    if (v > 0.0) {{
      b[(i * {t} + {p}) % n] = v * 2.0;
      b[(i * {t} + {p}) % n] = b[(i * {t} + {p}) % n] + b[i];
    }} else {{
      a[(i + {p}) % n] = v - 1.0;
    }}
  }}
}} }}
"""

# a data-dependent inner loop over float32 cells (overlapping across and
# within lanes) plus a guarded int32 store
LOOPED_MIXED = """
class T {{ static void f(float[] x, int[] y, int n) {{
  /* acc parallel */
  for (int i = 0; i < n; i++) {{
    int c = y[(i * {s} + {o}) % n];
    for (int j = 0; j < c % {m}; j++) {{
      x[(i + j * {t}) % n] = x[(i + j * {t}) % n] * 0.5f + (float) c;
    }}
    if (c % 2 == 0) {{
      y[(i + {p}) % n] = c / 3;
    }}
  }}
}} }}
"""

N_TEMPLATES = 7
CONTROL_FLOW_TEMPLATES = (5, 6)


def _make_case(template_id, n, s, o, t, p, k, m, seed):
    rng = np.random.default_rng(seed)
    env = {"n": n}
    if template_id == 0:
        src = RAW_CHAIN.format(s=s, o=o, t=t, p=p)
        arrays = {"a": rng.standard_normal(n), "b": rng.standard_normal(n)}
    elif template_id == 1:
        mm = max(1, min(m, n))
        src = SCATTER_WAW.format(s=s, o=o, p=p)
        arrays = {"c": rng.standard_normal(mm), "b": rng.standard_normal(n)}
        env = {"n": n, "m": mm}
    elif template_id == 2:
        src = GATHER.format(o=o, p=p)
        arrays = {
            "v": rng.standard_normal(n),
            "idx": rng.integers(0, n, n, dtype=np.int32),
            "out": np.zeros(n),
        }
    elif template_id == 3:
        mm = max(1, min(m, 8))
        src = SCRATCH_REUSE.format(m=mm)
        arrays = {
            "t": rng.standard_normal(mm),
            "b": rng.standard_normal(n),
            "d": np.zeros(n),
        }
    elif template_id == 4:
        src = INT_MIX.format(s=s, o=o, t=t, k=1 + k % 30)
        arrays = {
            "x": rng.integers(-(2**31), 2**31, n, dtype=np.int32),
            "y": rng.integers(-1000, 1000, n, dtype=np.int32),
        }
    elif template_id == 5:
        src = GUARDED_STORE.format(s=s, o=o, t=t, p=p)
        arrays = {"a": rng.standard_normal(n), "b": rng.standard_normal(n)}
    else:
        src = LOOPED_MIXED.format(s=s, o=o, t=t, p=p, m=1 + m % 5)
        arrays = {
            "x": rng.standard_normal(n).astype(np.float32),
            "y": rng.integers(0, 50, n, dtype=np.int32),
        }
    return src, arrays, env


def _copy(arrays):
    return ArrayStorage({k: v.copy() for k, v in arrays.items()})


def assert_profiles_equal(p_prod, p_oracle):
    d_prod = dataclasses.asdict(p_prod)
    d_oracle = dataclasses.asdict(p_oracle)
    for field in d_oracle:
        assert d_prod[field] == d_oracle[field], (
            f"profile field {field!r}: {d_prod[field]!r} != "
            f"{d_oracle[field]!r}"
        )


def assert_equivalent(src, arrays, env, n):
    _, fn = lowered(src)
    indices = list(range(n))
    ctx = ExecutionContext()
    st_prod, st_oracle = _copy(arrays), _copy(arrays)
    # production: the launch's SE log, whichever engine ran the lanes
    prod = ctx.device.launch(
        fn, indices, env, st_prod, mode="buffered", check_allocations=False
    )
    lanes = prod.lanes
    assert isinstance(lanes, ColumnarLanes)
    assert prod.vectorized == (fn.is_straightline and n > 0)
    # oracle side: the interpreter's own {index: LaneSpecState} dict
    per_lane, counts, oracle_lanes = interpreter_lanes(
        fn, indices, env, st_oracle
    )
    assert prod.counts == counts
    assert prod.sim_time_s == ctx.device.cost.gpu_kernel_time(
        prod.counts, n,
        divergence=divergence_factor(per_lane, ctx.device.spec.warp_size),
    )

    # analysis passes: production on the launch's columns, oracles on
    # the interpreter's dict
    p_prod = analyze_lanes(lanes, warp_size=32)
    p_oracle = analyze_lanes_scalar(oracle_lanes, indices, warp_size=32)
    p_prod.coalescing = estimate_coalescing(lanes, 32)
    p_oracle.coalescing = estimate_coalescing_scalar(oracle_lanes, indices, 32)
    assert_profiles_equal(p_prod, p_oracle)

    # TLS dependence check and the DC volume it is charged for
    c_prod = check_subloop(lanes)
    c_oracle = check_subloop_scalar(oracle_lanes, indices)
    assert c_prod.violations == c_oracle.violations
    assert c_prod.first_violation_pos == c_oracle.first_violation_pos
    assert lanes.logged_accesses() == logged_accesses_scalar(oracle_lanes)

    # committing the buffers leaves memory bit-identical
    assert lanes.commit(st_prod, indices) == commit_scalar(
        oracle_lanes, st_oracle, indices
    )
    for name in arrays:
        a, b = st_prod.arrays[name], st_oracle.arrays[name]
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


_CASE = dict(
    n=st.integers(1, 96),
    s=st.integers(0, 7),
    o=st.integers(0, 5),
    t=st.integers(0, 7),
    p=st.integers(0, 5),
    k=st.integers(0, 29),
    m=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)


class TestPropertyEquivalence:
    @given(template_id=st.integers(0, N_TEMPLATES - 1), **_CASE)
    @settings(max_examples=60, deadline=None)
    def test_random_kernels(self, template_id, n, s, o, t, p, k, m, seed):
        src, arrays, env = _make_case(template_id, n, s, o, t, p, k, m, seed)
        assert_equivalent(src, arrays, env, n)

    @given(template_id=st.sampled_from(CONTROL_FLOW_TEMPLATES), **_CASE)
    @settings(max_examples=40, deadline=None)
    def test_control_flow_kernels(
        self, template_id, n, s, o, t, p, k, m, seed
    ):
        src, arrays, env = _make_case(template_id, n, s, o, t, p, k, m, seed)
        assert_equivalent(src, arrays, env, n)

    def test_dense_collisions(self):
        # every iteration hits the same two cells: maximal TD/FD density
        src, arrays, env = _make_case(1, 64, 0, 0, 0, 0, 0, 2, 11)
        assert_equivalent(src, arrays, env, 64)

    def test_single_iteration(self):
        src, arrays, env = _make_case(0, 1, 1, 0, 1, 0, 0, 1, 3)
        assert_equivalent(src, arrays, env, 1)

    @given(
        template_id=st.sampled_from(CONTROL_FLOW_TEMPLATES),
        **{**_CASE, "n": st.integers(128, 200)},
    )
    @settings(max_examples=15, deadline=None)
    def test_control_flow_kernels_wide(
        self, template_id, n, s, o, t, p, k, m, seed
    ):
        # past the lock-step width rule of direct launches
        src, arrays, env = _make_case(template_id, n, s, o, t, p, k, m, seed)
        assert_equivalent(src, arrays, env, n)

    @pytest.mark.parametrize("template_id", CONTROL_FLOW_TEMPLATES)
    def test_control_flow_collisions(self, template_id):
        # overlapping unit strides: lanes read cells earlier lanes store
        # (RAW violations) and store cells other lanes store (WAW)
        src, arrays, env = _make_case(template_id, 80, 1, 1, 1, 1, 0, 3, 7)
        assert_equivalent(src, arrays, env, 80)


class TestProfileLoopEndToEnd:
    def test_profile_loop_equal_profiles(self):
        src, arrays, env = _make_case(0, 80, 2, 1, 3, 0, 0, 1, 21)
        _, fn = lowered(src)
        device = ExecutionContext().device
        run = profile_loop(
            device, fn, range(80), env, _copy(arrays), max_sample=64
        )
        per_lane, counts, oracle_lanes = interpreter_lanes(
            fn, range(64), env, _copy(arrays)
        )
        expected = analyze_lanes_scalar(oracle_lanes, range(64), 32)
        expected.coalescing = estimate_coalescing_scalar(
            oracle_lanes, range(64), 32
        )
        kernel_s = device.cost.gpu_kernel_time(
            counts, 64,
            divergence=divergence_factor(per_lane, 32),
        )
        expected.profile_time_s = (
            kernel_s * INSTRUMENTATION_FACTOR
            + logged_accesses_scalar(oracle_lanes) * ANALYSIS_COST_PER_ACCESS
        )
        assert run.sampled_iterations == 64
        assert_profiles_equal(run.profile, expected)


# ---------------------------------------------------------------------------
# ``from_states``: the interpreter's adapter to the columns
# ---------------------------------------------------------------------------


def _lane(*ops):
    """A lane as an engine leaves it: ``("R", array, flat)`` reads and
    ``("W", array, flat, value)`` stores, in program order."""
    state = LaneSpecState()
    for kind, array, flat, *value in ops:
        key = (array, flat)
        if kind == "R":
            if key not in state.buffer:
                state.reads.append(AccessRecord(state.op, "R", array, flat))
        else:
            state.writes.append(AccessRecord(state.op, "W", array, flat))
            state.buffer[key] = value[0]
        state.op += 1
    return state


def _commit_both(lanes, storage, iterations):
    """Commit through production and the oracle on copies of ``storage``."""
    st_prod = ArrayStorage(storage.snapshot())
    st_oracle = ArrayStorage(storage.snapshot())
    cols = ColumnarLanes.from_states(lanes, list(lanes), storage)
    got = cols.commit(st_prod, iterations)
    want = commit_scalar(lanes, st_oracle, iterations)
    return got, want, st_prod, st_oracle


def _same_bytes(a: ArrayStorage, b: ArrayStorage):
    for name, arr in b.arrays.items():
        assert a.arrays[name].dtype == arr.dtype, name
        assert a.arrays[name].tobytes() == arr.tobytes(), name


class TestFromStates:
    def test_cell_stored_twice_keeps_last_value(self):
        lanes = {
            0: _lane(("W", "x", 1, 1.5), ("R", "x", 1), ("W", "x", 1, 2.5)),
            1: _lane(("W", "x", 2, 7.0)),
        }
        storage = ArrayStorage({"x": np.zeros(4)})
        cols = ColumnarLanes.from_states(lanes, [0, 1], storage)
        pos, flat, val = cols.buffers[0]
        assert pos.tolist() == [0, 1] and flat.tolist() == [1, 2]
        assert val.tolist() == [2.5, 7.0]
        # the write log keeps both stores; the forwarded read is not logged
        assert cols.logged_accesses() == 3
        got, want, st_prod, st_oracle = _commit_both(lanes, storage, [0, 1])
        assert got == want == (2, 16)
        assert st_prod.arrays["x"].tolist() == [0.0, 2.5, 7.0, 0.0]
        _same_bytes(st_prod, st_oracle)

    @pytest.mark.parametrize("dtype", [np.int32, np.float32])
    def test_buffers_keep_array_dtype(self, dtype):
        values = [3, -7, 2**31 - 1] if dtype is np.int32 else [
            float(np.float32(0.1)), -2.5, float(np.float32(3.4e38)),
        ]
        lanes = {
            it: _lane(("W", "v", it, values[it]), ("W", "w", it, 0.25))
            for it in range(3)
        }
        storage = ArrayStorage({
            "v": np.zeros(3, dtype=dtype), "w": np.zeros(3),
        })
        cols = ColumnarLanes.from_states(lanes, [0, 1, 2], storage)
        by_name = {cols.names[a]: b for a, b in cols.buffers.items()}
        assert by_name["v"][2].dtype == np.dtype(dtype)
        assert by_name["w"][2].dtype == np.dtype(np.float64)
        got, want, st_prod, st_oracle = _commit_both(
            lanes, storage, [0, 1, 2]
        )
        assert got == want == (6, 3 * np.dtype(dtype).itemsize + 24)
        _same_bytes(st_prod, st_oracle)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_negative_zero_and_nan_commit_bit_identically(self, dtype):
        payload_nan = np.array([0x7FF8_0000_0000_0123], np.uint64).view(
            np.float64
        )[0]
        specials = [-0.0, float("nan"), -float("nan"), float(payload_nan)]
        lanes = {
            it: _lane(("W", "x", it, value))
            for it, value in enumerate(specials)
        }
        storage = ArrayStorage({"x": np.ones(4, dtype=dtype)})
        got, want, st_prod, st_oracle = _commit_both(
            lanes, storage, [0, 1, 2, 3]
        )
        assert got == want
        assert np.signbit(st_prod.arrays["x"][0])
        _same_bytes(st_prod, st_oracle)

    def test_prefix_commit_matches_oracle(self):
        # overlapping cells across lanes: last writer in the prefix wins
        lanes = {
            it: _lane(
                ("R", "x", (it + 1) % 5),
                ("W", "x", it % 3, float(it)),
                ("W", "y", 0, float(-it)),
            )
            for it in range(10, 18)
        }
        storage = ArrayStorage({"x": np.zeros(5), "y": np.zeros(1)})
        chunk = list(lanes)
        for k in range(len(chunk) + 1):
            got, want, st_prod, st_oracle = _commit_both(
                lanes, storage, chunk[:k]
            )
            assert got == want
            _same_bytes(st_prod, st_oracle)

    def test_empty_launch(self):
        cols = ColumnarLanes.from_states({}, [], ArrayStorage({}))
        assert cols.n_present == 0 and cols.buffers == {}
        assert cols.commit(ArrayStorage({}), []) == (0, 0)


# ---------------------------------------------------------------------------
# dedup_first: one packed-key sort, with a multi-key fallback
# ---------------------------------------------------------------------------


def _dedup_oracle(pos, op, key):
    """First row per (pos, key) in scan order, one row at a time."""
    seen, keep = set(), []
    for row, cell in enumerate(zip(pos.tolist(), key.tolist())):
        if cell not in seen:
            seen.add(cell)
            keep.append(row)
    return pos[keep], op[keep], key[keep]


@st.composite
def _scan_rows(draw, key_hi):
    """(pos, op, key) rows in (pos, op) order, op unique within a lane."""
    per_lane = draw(st.lists(st.integers(0, 6), max_size=12))
    pos, op = [], []
    for p, k in enumerate(per_lane):
        ops = sorted(draw(st.sets(st.integers(0, 40), min_size=k, max_size=k)))
        pos += [p] * k
        op += ops
    key = draw(st.lists(st.integers(0, key_hi), min_size=len(pos),
                        max_size=len(pos)))
    return (np.array(pos, dtype=np.int64), np.array(op, dtype=np.int64),
            np.array(key, dtype=np.int64))


class TestDedupFirst:
    @given(rows=_scan_rows(8))
    def test_matches_the_oracle(self, rows):
        from repro.ir.columnar import dedup_first

        for got, want in zip(dedup_first(*rows), _dedup_oracle(*rows)):
            assert got.tolist() == want.tolist()

    def test_overflowing_packed_key_falls_back(self):
        from repro.ir.columnar import dedup_first

        # 3 lanes * a key span of 2**62 + 1 would overflow int64
        rows = (np.array([0, 0, 0, 1, 1, 2]), np.array([0, 1, 2, 0, 1, 0]),
                np.array([2**62, 0, 2**62, 2**62, 2**62, 0]))
        got = dedup_first(*rows)
        assert [c.tolist() for c in got] == [
            [0, 0, 1, 2], [0, 1, 0, 0], [2**62, 0, 2**62, 0]
        ]
        for got_col, want in zip(got, _dedup_oracle(*rows)):
            assert got_col.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# from_columns: array ids numbered in first-seen order
# ---------------------------------------------------------------------------


@st.composite
def _coded_logs(draw):
    """``(order, arrays, reads, writes)`` for ``from_columns``: each log
    draws its codes from its own subset of the arrays, so some codes are
    absent and some only written, and lane 0 may open its reads with a
    run of one code long enough to push the others past the prefix that
    one compare covers."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    lead = draw(st.sampled_from([0, 2, 1500]))

    def log(allowed, lead):
        pos, op, code = [], [], []
        for p in range(n):
            run = [allowed[0]] * lead if p == 0 and allowed else []
            if allowed:
                run += draw(st.lists(st.sampled_from(allowed), max_size=4))
            pos += [p] * len(run)
            op += range(len(run))
            code += run
        return tuple(np.array(c, dtype=np.int64) for c in (pos, op, code, op))

    subset = st.sets(st.integers(0, k - 1)).map(sorted)
    reads = log(draw(subset), lead)
    writes = log(draw(subset), 0)
    arrays = [f"a{c}" for c in range(k)]
    return np.arange(n), arrays, reads, writes


def _assert_numbered_as_the_oracle(order, arrays, reads, writes):
    buffers = {
        c: (np.zeros(1, np.int64), np.full(1, c), np.ones(1))
        for c in set(writes[2].tolist())
    }
    cols = ColumnarLanes.from_columns(order, arrays, reads, writes, buffers)
    by_seen = first_seen_codes(arrays, reads, writes)
    ids = {c: i for i, c in enumerate(by_seen)}
    assert cols.names == [arrays[c] for c in by_seen]
    for got, code in ((cols.r_arr, reads[2]), (cols.w_arr, writes[2])):
        assert got.dtype == np.int64
        assert got.tolist() == [ids[c] for c in code.tolist()]
    assert list(cols.buffers) == sorted(ids[c] for c in buffers)
    for c, cells in buffers.items():
        assert cols.buffers[ids[c]] is cells
    return cols


def _log(pos, code):
    pos, code = np.array(pos, np.int64), np.array(code, np.int64)
    return pos, np.zeros_like(pos), code, code


class TestFromColumns:
    @given(logs=_coded_logs())
    def test_ids_match_the_oracle(self, logs):
        _assert_numbered_as_the_oracle(*logs)

    def test_read_and_write_first_seen_in_one_lane(self):
        # lane 1 is the first to touch codes 1 and 2: its read comes first
        cols = _assert_numbered_as_the_oracle(
            np.arange(3), ["x", "y", "z", "unused"],
            _log([1, 2], [2, 0]), _log([1, 1, 2], [1, 2, 0]),
        )
        assert cols.names == ["z", "y", "x"]

    def test_code_first_seen_past_the_prefix(self):
        # lane 0 reads x 1,500 times and writes z; lane 1 reads y, whose
        # first row lies past the rows one compare covers
        cols = _assert_numbered_as_the_oracle(
            np.arange(2), ["x", "y", "z"],
            _log([0] * 1500 + [1], [0] * 1500 + [1]), _log([0], [2]),
        )
        assert cols.names == ["x", "z", "y"]
