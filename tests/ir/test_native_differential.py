"""Property-based differential suite: every kernel engine vs the interpreter.

Hypothesis generates random small IR kernels straight through
:class:`IRBuilder` — mixed int/long/double arithmetic, guarded division,
saturating ``(long)``/``(int)`` casts, float32 round-trips, intrinsics,
``MIN_VALUE``/``MAX_VALUE`` constants, data-dependent branches, and
bounded loops — and runs each through the interpreter and the
generated-source tier; straight-line kernels also run through the
vectorized engines (``VectorizedKernel.run_range`` and
``VectorizedSpecKernel.run_buffered``).  Arrays must be bitwise
identical, :class:`Counts` equal, per-lane instruction counts and
speculative lane state equal, and exceptions of the same type (the
interpreter and the src tier also agree on the message and the point of
fuel exhaustion).

A third family holds the collapse of a narrow launch to the
interpreter, under a 16-lane width rule so that most launches collapse:
two-deep nests whose inner ``j`` loop runs an in-order ``k`` reduction, in variants the collapse must take (independent
iterations, and rows that may collide at run time) and must refuse (a
register carried across ``j``, cells that do not follow ``j``, ``j + 1``
reads, a ``break``, bounds that depend on ``i``), over zero trips,
out-of-bounds cells and fuel exhaustion.

A second generator builds random *structured* CFGs — nested loops,
loops that exit from a ``&&``/``||``/``?:`` join block, if without
else, diamonds inside a loop body and as its last statement (joining
at the loop header), empty loop bodies, float32 registers and a store
and load of one cell in a lane — and holds every native engine to the
interpreter: the src tier's ``direct`` and ``tracing`` flavors, and
the lock-step engine on buffered launches and on lane-parallel direct
launches, at 8 lanes and past the dispatcher's width rule.  The
buffered columns must equal ``from_states`` of the interpreter's own
lanes dict, column for column.
"""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir import ArrayStorage, FuelExhausted, IRBuilder, JType
from repro.ir.interpreter import DEFAULT_FUEL
from repro.ir.native import KernelCache, KernelDispatcher, dispatch
from repro.ir.native.codegen import collapse
from repro.ir.specvec import VectorizedSpecKernel
from repro.ir.vectorizer import VectorizedKernel
from repro.obs import Instrumentation

from ..oracles import as_states
from .test_native_codegen import _interp, _native, assert_same_log

N = 8

INT_OPS = ["+", "-", "*", "&", "|", "^", "<<", ">>", ">>>"]
LONG_OPS = ["+", "-", "*", "^", ">>>"]
DBL_OPS = ["+", "-", "*", "/", "%"]
CMP_OPS = ["<", "<=", ">", ">=", "==", "!="]
INTR1 = [
    "Math.abs", "Math.floor", "Math.ceil", "Math.sin", "Math.cos",
    "Math.exp", "Math.log", "Math.tan", "Math.sqrt",
]
INTR2 = ["Math.min", "Math.max", "Math.pow"]

INT_MIN, INT_MAX = -(2**31), 2**31 - 1
LONG_MIN, LONG_MAX = -(2**63), 2**63 - 1

_idx = st.integers(0, 15)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("ibin"), st.sampled_from(INT_OPS), _idx, _idx),
        st.tuples(st.just("idiv"), st.sampled_from(["/", "%"]), _idx, _idx),
        st.tuples(st.just("lbin"), st.sampled_from(LONG_OPS), _idx, _idx),
        st.tuples(st.just("ldiv"), st.sampled_from(["/", "%"]), _idx, _idx),
        st.tuples(st.just("dbin"), st.sampled_from(DBL_OPS), _idx, _idx),
        st.tuples(st.just("iun"), st.sampled_from(["-", "~"]), _idx, _idx),
        st.tuples(st.just("dun"), st.just("-"), _idx, _idx),
        st.tuples(st.just("i2d"), st.just(""), _idx, _idx),
        st.tuples(st.just("d2i"), st.just(""), _idx, _idx),
        st.tuples(st.just("d2l"), st.just(""), _idx, _idx),
        st.tuples(st.just("l2d"), st.just(""), _idx, _idx),
        st.tuples(st.just("f32"), st.just(""), _idx, _idx),
        st.tuples(st.just("intr1"), st.sampled_from(INTR1), _idx, _idx),
        st.tuples(st.just("intr2"), st.sampled_from(INTR2), _idx, _idx),
    ),
    min_size=1,
    max_size=10,
)
_branch = st.none() | st.tuples(st.sampled_from(CMP_OPS), _idx, _idx, _idx, _idx)
_loop = st.none() | st.tuples(st.integers(0, 3), _idx)
_int_consts = st.lists(
    st.sampled_from([INT_MIN, INT_MAX]) | st.integers(INT_MIN, INT_MAX),
    max_size=3,
)
_long_consts = st.lists(
    st.sampled_from([LONG_MIN, LONG_MAX]) | st.integers(LONG_MIN, LONG_MAX),
    max_size=2,
)
_dbl_consts = st.lists(st.floats(width=64), max_size=3)


def _programs(control_flow=True):
    return st.fixed_dictionaries(
        {
            "int_consts": _int_consts,
            "long_consts": _long_consts,
            "dbl_consts": _dbl_consts,
            "ops": _ops,
            "branch": _branch if control_flow else st.none(),
            "loop": _loop if control_flow else st.none(),
        }
    )


_i32 = st.lists(st.integers(INT_MIN, INT_MAX), min_size=N, max_size=N)
_f64 = st.lists(st.floats(width=64), min_size=N, max_size=N)


def _pick(pool, k):
    return pool[k % len(pool)]


def build(prog):
    """A random but well-formed kernel: no faults except by fuel."""
    b = IRBuilder("hk")
    i = b.declare_index("i")
    sn = b.declare_scalar("n", JType.INT)
    ss = b.declare_scalar("s", JType.DOUBLE)
    b.declare_array("ai", JType.INT, 1)
    b.declare_array("ad", JType.DOUBLE, 1)
    b.declare_array("oi", JType.INT, 1)
    b.declare_array("ol", JType.LONG, 1)
    b.declare_array("od", JType.DOUBLE, 1)
    entry = b.new_block("entry")
    b.set_insert(entry)
    ints = [i, sn, b.load("ai", (i,), JType.INT)]
    longs = [b.cast(ints[-1], JType.LONG)]
    dbls = [ss, b.load("ad", (i,), JType.DOUBLE)]
    for c in prog["int_consts"]:
        ints.append(b.const(c, JType.INT))
    for c in prog["long_consts"]:
        longs.append(b.const(c, JType.LONG))
    for c in prog["dbl_consts"]:
        dbls.append(b.const(c, JType.DOUBLE))
    for kind, op, x, y in prog["ops"]:
        if kind == "ibin":
            ints.append(b.bin(op, _pick(ints, x), _pick(ints, y), JType.INT))
        elif kind == "idiv":
            # `| 1` keeps the divisor nonzero so only fuel can fault
            one = b.const(1, JType.INT)
            d = b.bin("|", _pick(ints, y), one, JType.INT)
            ints.append(b.bin(op, _pick(ints, x), d, JType.INT))
        elif kind == "lbin":
            # a shift count is an int, as lowering casts it
            lb = _pick(ints, y) if op == ">>>" else _pick(longs, y)
            longs.append(b.bin(op, _pick(longs, x), lb, JType.LONG))
        elif kind == "ldiv":
            one = b.const(1, JType.LONG)
            d = b.bin("|", _pick(longs, y), one, JType.LONG)
            longs.append(b.bin(op, _pick(longs, x), d, JType.LONG))
        elif kind == "dbin":
            dbls.append(
                b.bin(op, _pick(dbls, x), _pick(dbls, y), JType.DOUBLE)
            )
        elif kind == "iun":
            ints.append(b.un(op, _pick(ints, x), JType.INT))
        elif kind == "dun":
            dbls.append(b.un("-", _pick(dbls, x), JType.DOUBLE))
        elif kind == "i2d":
            dbls.append(b.cast(_pick(ints, x), JType.DOUBLE))
        elif kind == "d2i":
            ints.append(b.cast(_pick(dbls, x), JType.INT))
        elif kind == "d2l":
            longs.append(b.cast(_pick(dbls, x), JType.LONG))
        elif kind == "l2d":
            dbls.append(b.cast(_pick(longs, x), JType.DOUBLE))
        elif kind == "f32":
            dbls.append(
                b.cast(b.cast(_pick(dbls, x), JType.FLOAT), JType.DOUBLE)
            )
        elif kind == "intr1":
            dbls.append(b.call(op, (_pick(dbls, x),), JType.DOUBLE))
        elif kind == "intr2":
            dbls.append(
                b.call(op, (_pick(dbls, x), _pick(dbls, y)), JType.DOUBLE)
            )
    b.store("ol", (i,), longs[-1])
    if prog["branch"] is not None:
        op, x, y, ti, ei = prog["branch"]
        cond = b.bin(op, _pick(ints, x), _pick(ints, y), JType.BOOL)
        then = b.new_block("then")
        els = b.new_block("else")
        join = b.new_block("join")
        b.cbr(cond, then, els)
        b.set_insert(then)
        b.store("oi", (i,), _pick(ints, ti))
        b.br(join)
        b.set_insert(els)
        b.store("oi", (i,), _pick(ints, ei))
        b.br(join)
        b.set_insert(join)
    else:
        b.store("oi", (i,), ints[-1])
    if prog["loop"] is not None:
        mask, di = prog["loop"]
        acc = b.new_reg(JType.DOUBLE, "acc")
        b.mov(acc, b.const(0.0, JType.DOUBLE))
        k = b.new_reg(JType.INT, "k")
        b.mov(k, b.const(0, JType.INT))
        bound = b.bin("&", i, b.const(mask, JType.INT), JType.INT)
        one = b.const(1, JType.INT)
        head = b.new_block("head")
        body = b.new_block("body")
        done = b.new_block("done")
        b.br(head)
        b.set_insert(head)
        cond = b.bin("<=", k, bound, JType.BOOL)
        b.cbr(cond, body, done)
        b.set_insert(body)
        b.mov(acc, b.bin("+", acc, _pick(dbls, di), JType.DOUBLE))
        b.mov(k, b.bin("+", k, one, JType.INT))
        b.br(head)
        b.set_insert(done)
        b.store("od", (i,), acc)
    else:
        b.store("od", (i,), dbls[-1])
    b.ret()
    return b.finish()


def _storage(ai, ad):
    return ArrayStorage(
        {
            "ai": np.array(ai, dtype=np.int32),
            "ad": np.array(ad, dtype=np.float64),
            "oi": np.zeros(N, dtype=np.int32),
            "ol": np.zeros(N, dtype=np.int64),
            "od": np.zeros(N, dtype=np.float64),
        }
    )


def _same_arrays(s1, s2):
    for name in s1.arrays:
        a, b = s1.arrays[name], s2.arrays[name]
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), name  # bitwise, NaN-safe


def _attempt(call, *args):
    try:
        return call(*args), None
    except Exception as exc:  # noqa: BLE001 - compared by type
        return None, exc


def _lane_bits(lanes):
    """Speculative lane logs and buffers, buffered values compared
    bitwise (a logged access carries its op stamp)."""

    def bits(value):
        return struct.pack("<d", value) if isinstance(value, float) else value

    return {
        i: (
            state.reads,
            state.writes,
            {key: bits(v) for key, v in state.buffer.items()},
        )
        for i, state in lanes.items()
    }


def assert_vectorized_engines_match(fn, env, ai, ad):
    """Both vectorized engines reproduce the interpreter bitwise."""
    s1, s2 = _storage(ai, ad), _storage(ai, ad)
    _pl, c1, _, e1 = _interp(fn, "direct", range(N), env, s1)
    c2, e2 = _attempt(VectorizedKernel(fn).run_range, s2, env, np.arange(N))
    assert type(e1) is type(e2)
    if e1 is None:
        assert c1 == c2
        _same_arrays(s1, s2)

    s3, s4 = _storage(ai, ad), _storage(ai, ad)
    _pl, c3, lanes3, e3 = _interp(fn, "buffered", range(N), env, s3)
    out, e4 = _attempt(
        VectorizedSpecKernel(fn).run_buffered, s4, env, np.arange(N)
    )
    assert type(e3) is type(e4)
    _same_arrays(s3, s4)  # buffered mode never writes storage
    if e3 is None:
        c4, lanes4 = out
        assert c3 == c4
        assert _lane_bits(lanes3) == _lane_bits(as_states(lanes4))


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestDifferential:
    def test_zero_over_zero_is_positive_nan_in_every_tier(self):
        """0.0/0.0 must be +NaN bitwise in all tiers (hardware division
        yields the negative QNaN; java_ops._fdiv substitutes +NaN)."""
        prog = {
            "int_consts": [],
            "long_consts": [],
            "dbl_consts": [],
            "ops": [("dbin", "/", 0, 0)],
            "branch": None,
            "loop": None,
        }
        fn = build(prog)
        env = {"n": N, "s": 0.0}
        pos_nan = np.float64("nan").tobytes()
        s1, s2 = _storage([0] * N, [0.0] * N), _storage([0] * N, [0.0] * N)
        _, _, _, e1 = _interp(fn, "direct", range(N), env, s1)
        _, _, _, e2 = _native(fn, "direct", list(range(N)), env, s2)
        s3 = _storage([0] * N, [0.0] * N)
        _, e3 = _attempt(
            VectorizedKernel(fn).run_range, s3, env, np.arange(N)
        )
        assert e1 is None and e2 is None and e3 is None
        for s_ in (s1, s2, s3):
            assert s_.arrays["od"].tobytes() == pos_nan * N
        assert_vectorized_engines_match(fn, env, [0] * N, [0.0] * N)

    def test_java_math_edges_in_every_engine(self):
        """Math.pow/min/max and the NaN-substituting intrinsics give
        Java's answers, bitwise, in the interpreter, the src tier and
        both vectorized engines."""
        nan, inf = float("nan"), float("inf")
        neg_nan = -nan
        # lane k computes f(ad[k], s) for the op under test
        cases = [
            ("Math.pow",
             [-10.0, -10.0, -0.0, -0.0, 0.0, 1.0, -1.0, 1.0, nan, -8.0],
             [309.0, 310.0, -1.0, -2.0, -1.0, inf, -inf, nan, 0.0, 0.5],
             [-inf, inf, -inf, inf, inf, nan, nan, nan, 1.0, nan]),
            ("Math.min", [1.0, 0.0, -0.0, nan], [nan, -0.0, 0.0, 1.0],
             [nan, -0.0, -0.0, nan]),
            ("Math.max", [0.0, -0.0, 1.0, -1.0], [-0.0, 0.0, nan, -0.0],
             [0.0, 0.0, nan, -0.0]),
            ("Math.sqrt", [neg_nan, -1.0, 4.0, -0.0], None,
             [nan, nan, 2.0, -0.0]),
            ("Math.log", [neg_nan, -1.0, 0.0, inf], None,
             [nan, nan, -inf, inf]),
            ("Math.sin", [inf, -inf, -0.0, 0.0], None,
             [nan, nan, -0.0, 0.0]),
            ("Math.cos", [inf, -inf, 0.0, 0.0], None, [nan, nan, 1.0, 1.0]),
            ("Math.tan", [inf, -inf, -0.0, 0.0], None,
             [nan, nan, -0.0, 0.0]),
        ]
        for name, xs, ys, want in cases:
            b = IRBuilder("edge")
            i = b.declare_index("i")
            b.declare_array("x", JType.DOUBLE, 1)
            b.declare_array("y", JType.DOUBLE, 1)
            b.declare_array("o", JType.DOUBLE, 1)
            b.set_insert(b.new_block("entry"))
            args = [b.load("x", (i,), JType.DOUBLE)]
            if ys is not None:
                args.append(b.load("y", (i,), JType.DOUBLE))
            b.store("o", (i,), b.call(name, tuple(args), JType.DOUBLE))
            b.ret()
            fn = b.finish()
            n = len(xs)

            def fresh():
                return ArrayStorage({
                    "x": np.array(xs, dtype=np.float64),
                    "y": np.array(ys or [0.0] * n, dtype=np.float64),
                    "o": np.zeros(n),
                })

            expect = np.array(want, dtype=np.float64).tobytes()
            runs = [fresh() for _ in range(4)]
            _interp(fn, "direct", range(n), {}, runs[0])
            _native(fn, "direct", list(range(n)), {}, runs[1])
            VectorizedKernel(fn).run_range(runs[2], {}, np.arange(n))
            _c, lanes = VectorizedSpecKernel(fn).run_buffered(
                runs[3], {}, np.arange(n)
            )
            lanes.commit(runs[3], range(n))
            for engine, st_ in zip(
                ("interp", "src", "vectorized", "specvec"), runs
            ):
                assert st_.arrays["o"].tobytes() == expect, (name, engine)

    @given(prog=_programs(), ai=_i32, ad=_f64, s=st.floats(width=64))
    @settings(max_examples=60, **COMMON)
    def test_all_tiers_bitwise_identical(self, prog, ai, ad, s):
        fn = build(prog)
        env = {"n": N, "s": s}
        s1, s2 = _storage(ai, ad), _storage(ai, ad)
        pl1, c1, _, e1 = _interp(fn, "direct", range(N), env, s1)
        pl2, c2, _, e2 = _native(fn, "direct", list(range(N)), env, s2)
        assert type(e1) is type(e2)
        if e1 is not None:
            assert str(e1) == str(e2)
        assert pl1 == pl2
        assert c1 == c2
        _same_arrays(s1, s2)
        if fn.is_straightline:
            assert_vectorized_engines_match(fn, env, ai, ad)

    @given(
        prog=_programs(control_flow=False),
        ai=_i32,
        ad=_f64,
        s=st.floats(width=64),
    )
    @settings(max_examples=60, **COMMON)
    def test_vectorized_engines_bitwise_identical(self, prog, ai, ad, s):
        fn = build(prog)
        assert fn.is_straightline
        assert_vectorized_engines_match(fn, {"n": N, "s": s}, ai, ad)

    @given(
        prog=_programs(),
        ai=_i32,
        ad=_f64,
        s=st.floats(width=64),
        fuel=st.integers(5, 120),
    )
    @settings(max_examples=40, **COMMON)
    def test_fuel_exhaustion_identical(self, prog, ai, ad, s, fuel):
        fn = build(prog)
        env = {"n": N, "s": s}
        s1, s2 = _storage(ai, ad), _storage(ai, ad)
        pl1, c1, _, e1 = _interp(fn, "direct", range(N), env, s1, fuel)
        pl2, c2, _, e2 = _native(
            fn, "direct", list(range(N)), env, s2, fuel
        )
        assert type(e1) is type(e2)
        if e1 is not None:
            assert str(e1) == str(e2)
        assert pl1 == pl2
        assert c1 == c2
        _same_arrays(s1, s2)


# ---------------------------------------------------------------------------
# Structured control flow: every flavor of the src tier
# ---------------------------------------------------------------------------

LOOP_CONDS = ("plain", "and", "or", "sel")
FLT_OPS = ["+", "-", "*", "/", "%"]
INT_ACC_OPS = ["+", "-", "*", "^", ">>>", "/", "%"]

_leaf = st.one_of(
    st.tuples(st.just("dacc"), st.sampled_from(DBL_OPS), _idx),
    st.tuples(st.just("facc"), st.sampled_from(FLT_OPS), _idx),
    st.tuples(st.just("iacc"), st.sampled_from(INT_ACC_OPS), _idx),
    st.tuples(st.just("mem"), st.integers(0, N - 1)),
)


def _stmts(depth):
    """A statement list: leaves, and ifs/loops nesting ``depth`` deep.

    ``("if", cmp, x, y, then, else_or_None, join_direct)``;
    ``("loop", mask, cond_kind, inc_in_head, body)``.
    """
    if depth == 0:
        return st.lists(_leaf, max_size=3)
    inner = _stmts(depth - 1)
    compound = st.one_of(
        st.tuples(
            st.just("if"), st.sampled_from(CMP_OPS), _idx, _idx, inner,
            st.none() | inner, st.booleans(),
        ),
        st.tuples(
            st.just("loop"), st.integers(0, 3), st.sampled_from(LOOP_CONDS),
            st.booleans(), inner,
        ),
    )
    return st.lists(st.one_of(_leaf, compound), max_size=3)


def build_structured(stmts):
    """Lower a statement tree the way ``ir/lower.py`` shapes a CFG,
    plus the shapes only a builder makes: a diamond or if-without-else
    that is a loop body's last statement branches straight to the loop
    header (``join_direct``), and a loop that counts in its header has
    an empty body block when its statement list is empty."""
    b = IRBuilder("sk")
    i = b.declare_index("i")
    sn = b.declare_scalar("n", JType.INT)
    ss = b.declare_scalar("s", JType.DOUBLE)
    for name, jt in (("ai", JType.INT), ("ad", JType.DOUBLE),
                     ("oi", JType.INT), ("od", JType.DOUBLE),
                     ("of", JType.FLOAT), ("ts", JType.DOUBLE)):
        b.declare_array(name, jt, 1)
    b.set_insert(b.new_block("entry"))
    iacc = b.new_reg(JType.INT, "iacc")
    dacc = b.new_reg(JType.DOUBLE, "dacc")
    facc = b.new_reg(JType.FLOAT, "facc")
    b.mov(iacc, b.load("ai", (i,), JType.INT))
    b.mov(dacc, b.load("ad", (i,), JType.DOUBLE))
    b.mov(facc, b.cast(ss, JType.FLOAT))
    ints = [i, sn, iacc]
    dbls = [ss, dacc]
    one = b.const(1, JType.INT)
    mask = b.const(N - 1, JType.INT)

    def leaf(stmt):
        kind = stmt[0]
        if kind == "dacc":
            _, op, x = stmt
            b.mov(dacc, b.bin(op, dacc, _pick(dbls, x), JType.DOUBLE))
        elif kind == "facc":
            _, op, x = stmt
            rhs = b.cast(_pick(dbls, x), JType.FLOAT)
            b.mov(facc, b.bin(op, facc, rhs, JType.FLOAT))
        elif kind == "iacc":
            _, op, x = stmt
            rhs = _pick(ints, x)
            if op in ("/", "%"):  # `| 1`: only fuel can fault
                rhs = b.bin("|", rhs, one, JType.INT)
            b.mov(iacc, b.bin(op, iacc, rhs, JType.INT))
        else:  # store a cell, then load this lane's own cell back
            _, off = stmt
            cell = b.bin(
                "&", b.bin("+", i, b.const(off, JType.INT), JType.INT),
                mask, JType.INT,
            )
            b.store("ts", (cell,), dacc)
            got = b.load("ts", (i,), JType.DOUBLE)
            b.mov(dacc, b.bin("+", dacc, got, JType.DOUBLE))

    def loop(stmt):
        _, lmask, kind, inc_in_head, body = stmt
        k = b.new_reg(JType.INT, "k")
        b.mov(k, b.const(0, JType.INT))
        bound = b.bin("&", i, b.const(lmask, JType.INT), JType.INT)
        head = b.new_block("head")
        b.br(head)
        b.set_insert(head)
        if inc_in_head:
            b.mov(k, b.bin("+", k, one, JType.INT))
        first = b.bin("<=" if inc_in_head else "<", k, bound, JType.BOOL)
        if kind == "plain":
            cond = first
        else:
            res = b.new_reg(JType.BOOL)
            k1 = b.bin("+", k, one, JType.INT)
            if kind == "sel":
                parity = b.bin(
                    "==", b.bin("&", k, one, JType.INT),
                    b.const(0, JType.INT), JType.BOOL,
                )
                sel_t, sel_f = b.new_block("sel_t"), b.new_block("sel_f")
                end = b.new_block("sel_end")
                b.cbr(parity, sel_t, sel_f)
                b.set_insert(sel_t)
                b.mov(res, first)
                b.br(end)
                b.set_insert(sel_f)
                b.mov(res, b.bin("<", k1, b.bin("+", bound, one, JType.INT),
                                 JType.BOOL))
                b.br(end)
            else:
                b.mov(res, first)
                rhs_blk, end = b.new_block("sc_rhs"), b.new_block("sc_end")
                if kind == "and":
                    b.cbr(first, rhs_blk, end)
                else:
                    b.cbr(first, end, rhs_blk)
                b.set_insert(rhs_blk)
                second = b.bin("<", k1, bound, JType.BOOL)
                b.mov(res, second if kind == "and" else
                      b.bin("&", second, first, JType.BOOL))
                b.br(end)
            b.set_insert(end)
            cond = res
        body_blk, done = b.new_block("body"), b.new_block("done")
        b.cbr(cond, body_blk, done)
        b.set_insert(body_blk)
        if inc_in_head:
            lower(body, head)
        else:
            lower(body, None)
            b.mov(k, b.bin("+", k, one, JType.INT))
            b.br(head)
        b.set_insert(done)

    def branch(stmt, cont):
        _, op, x, y, then, els, join_direct = stmt
        cond = b.bin(op, _pick(ints, x), _pick(ints, y), JType.BOOL)
        then_blk = b.new_block("then")
        else_blk = b.new_block("else") if els is not None else None
        if cont is not None and join_direct:
            b.cbr(cond, then_blk, else_blk or cont)
            for blk, arm in ((then_blk, then), (else_blk, els)):
                if blk is not None:
                    b.set_insert(blk)
                    lower(arm, cont)
            return True
        join = b.new_block("join")
        b.cbr(cond, then_blk, else_blk or join)
        for blk, arm in ((then_blk, then), (else_blk, els)):
            if blk is not None:
                b.set_insert(blk)
                lower(arm, join)
        b.set_insert(join)
        return False

    def lower(stmts, cont):
        """Lower ``stmts``; with ``cont``, end by branching to it."""
        for k, stmt in enumerate(stmts):
            last = k == len(stmts) - 1
            if stmt[0] == "if":
                if branch(stmt, cont if last else None):
                    return
            elif stmt[0] == "loop":
                loop(stmt)
            else:
                leaf(stmt)
        if cont is not None:
            b.br(cont)

    lower(stmts, None)
    b.store("oi", (i,), iacc)
    b.store("od", (i,), dacc)
    b.store("of", (i,), facc)
    b.ret()
    return b.finish()


def _structured_storage(ai, ad, width=N):
    """The arrays of ``build_structured`` kernels over ``width`` lanes
    (``ai``/``ad`` repeated); stores of the ``mem`` leaf hit cells
    ``0..N-1`` of ``ts`` whatever the width."""
    reps = -(-width // N)
    return ArrayStorage(
        {
            "ai": np.tile(np.array(ai, dtype=np.int32), reps)[:width],
            "ad": np.tile(np.array(ad, dtype=np.float64), reps)[:width],
            "oi": np.zeros(width, dtype=np.int32),
            "od": np.zeros(width, dtype=np.float64),
            "of": np.zeros(width, dtype=np.float32),
            "ts": np.arange(width, dtype=np.float64),
        }
    )


#: every launch mode, with the lock-step direct engine at every width
LAUNCHES = ("direct", "buffered", "tracing", "lockstep")


def assert_src_flavors_match(fn, env, ai, ad, fuel=None, width=N,
                             launches=LAUNCHES):
    """Every native engine reproduces the interpreter: arrays, Counts,
    per-lane totals, fuel faults and the launch mode's log."""
    indices = list(range(width))
    for flavor in launches:
        s1 = _structured_storage(ai, ad, width)
        s2 = _structured_storage(ai, ad, width)
        pl1, c1, aux1, e1 = _interp(fn, flavor, indices, env, s1, fuel)
        pl2, c2, aux2, e2 = _native(fn, flavor, indices, env, s2, fuel)
        assert type(e1) is type(e2), flavor
        assert str(e1) == str(e2), flavor
        if pl2 is not None:  # a dispatched launch that faulted: None
            assert pl1 == pl2, flavor
        assert c1 == c2, flavor
        _same_arrays(s1, s2)
        if e1 is not None:
            continue
        if flavor == "buffered":
            assert_same_log(aux2, aux1, indices, s1)
        elif flavor == "tracing":
            assert aux1 == aux2


def _loop(body, cond="plain", inc_in_head=False, mask=3):
    return ("loop", mask, cond, inc_in_head, body)


def _if(then, els=None, join_direct=False, op="<", x=2, y=0):
    return ("if", op, x, y, then, els, join_direct)


_D = ("dacc", "+", 1)
_F = ("facc", "*", 0)
_I = ("iacc", "%", 0)

#: one kernel per shape the structurer must handle
SHAPES = {
    "nested_loops": [_loop([_D, _loop([_I, _F])])],
    "and_exit": [_loop([_D], cond="and")],
    "or_exit": [_loop([_I], cond="or")],
    "sel_exit": [_loop([_F], cond="sel")],
    "if_without_else": [_if([_D, _I])],
    "diamond_in_loop": [_loop([_if([_D], [_F]), _I])],
    "diamond_last_in_body": [
        _loop([_I, _if([_D], [_F], join_direct=True)], inc_in_head=True)
    ],
    "if_without_else_last_in_body": [
        _loop([_if([_D], join_direct=True)], inc_in_head=True)
    ],
    "empty_loop_body": [_loop([], inc_in_head=True), _loop([], cond="and")],
    "float_registers": [_F, ("facc", "/", 1), ("facc", "%", 0)],
    "store_then_load": [("mem", 0), _loop([("mem", 1), ("mem", 0)])],
    "deep_mix": [
        _loop([
            _if([_loop([_D, ("mem", 0)], cond="sel")], [_I]),
            _loop([_if([_F], join_direct=True)], cond="or", inc_in_head=True),
        ], cond="and"),
    ],
}

_AI = [5, -3, 0, 7, 2**31 - 1, -(2**31), 12, 1]
_AD = [0.5, -1.25, 3.0, float("nan"), -0.0, 1e300, 2.5, -7.0]


class TestStructuredFlavors:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shape_matches_interpreter(self, shape):
        fn = build_structured(SHAPES[shape])
        assert_src_flavors_match(fn, {"n": N, "s": 1.5}, _AI, _AD)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shape_fuel_fault_matches_interpreter(self, shape):
        fn = build_structured(SHAPES[shape])
        assert_src_flavors_match(fn, {"n": N, "s": 1.5}, _AI, _AD, fuel=40)

    @given(stmts=_stmts(2), ai=_i32, ad=_f64, s=st.floats(width=64))
    @settings(max_examples=60, **COMMON)
    def test_random_structured_kernels(self, stmts, ai, ad, s):
        fn = build_structured(stmts)
        assert_src_flavors_match(fn, {"n": N, "s": s}, ai, ad)

    @given(
        stmts=_stmts(2),
        ai=_i32,
        ad=_f64,
        fuel=st.integers(5, 150),
    )
    @settings(max_examples=30, **COMMON)
    def test_random_structured_fuel_faults(self, stmts, ai, ad, fuel):
        fn = build_structured(stmts)
        assert_src_flavors_match(fn, {"n": N, "s": 0.5}, ai, ad, fuel)


#: a launch wider than the dispatcher's lock-step width rule
WIDE = 136


class TestLockstepWidths:
    """The lock-step engine against the interpreter on random structured
    kernels at a width the dispatcher runs lock-step by itself (the
    ``N``-lane tests above force it); the ``mem`` leaf's cells are
    shared by lanes ``N`` apart, so direct launches that store them
    conflict and rerun lane by lane."""

    @given(stmts=_stmts(2), ai=_i32, ad=_f64, s=st.floats(width=64))
    @settings(max_examples=25, **COMMON)
    def test_random_structured_kernels_wide(self, stmts, ai, ad, s):
        fn = build_structured(stmts)
        assert_src_flavors_match(
            fn, {"n": WIDE, "s": s}, ai, ad, width=WIDE,
            launches=("buffered", "lockstep"),
        )

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shape_wide(self, shape):
        fn = build_structured(SHAPES[shape])
        assert_src_flavors_match(
            fn, {"n": WIDE, "s": 1.5}, _AI, _AD, width=WIDE,
            launches=("buffered", "lockstep"),
        )


# ---------------------------------------------------------------------------
# Collapsed narrow launches: one lane per (i, j)
# ---------------------------------------------------------------------------

#: nest variants, by whether the collapse test takes them
COLLAPSIBLE = ("independent", "rows")
REFUSED = ("carried", "cells", "next", "break", "i_bound")


def build_nest(variant):
    """Lane ``i`` runs ``for (j = 0; j < m; j++) { acc = 0.0; for (k = 0;
    k < kn; k++) acc += a[i][k] * b[k][j]; o[row][j] = acc + 0.5 *
    o[row][j]; }`` with ``row`` = ``i`` (``rows``: ``rows[i]``, loaded in
    the body), changed as the variant says."""
    b = IRBuilder("nest")
    i = b.declare_index("i")
    m = b.declare_scalar("m", JType.INT)
    kn = b.declare_scalar("kn", JType.INT)
    for name in ("a", "b", "o"):
        b.declare_array(name, JType.DOUBLE, 2)
    b.declare_array("rows", JType.INT, 1)
    b.set_insert(b.new_block("entry"))
    acc = b.new_reg(JType.DOUBLE, "acc")
    b.mov(acc, b.const(0.0, JType.DOUBLE))
    j = b.new_reg(JType.INT, "j")
    b.mov(j, b.const(0, JType.INT))
    one = b.const(1, JType.INT)
    head, body, done = (b.new_block(h) for h in ("head", "body", "done"))
    b.br(head)
    b.set_insert(head)
    bound = i if variant == "i_bound" else m
    b.cbr(b.bin("<", j, bound, JType.BOOL), body, done)
    b.set_insert(body)
    if variant != "carried":  # else acc runs on across j
        b.mov(acc, b.const(0.0, JType.DOUBLE))
    k = b.new_reg(JType.INT, "k")
    b.mov(k, b.const(0, JType.INT))
    khead, kbody, kdone = (b.new_block(h) for h in ("kh", "kb", "kd"))
    b.br(khead)
    b.set_insert(khead)
    b.cbr(b.bin("<", k, kn, JType.BOOL), kbody, kdone)
    b.set_insert(kbody)
    prod = b.bin("*", b.load("a", (i, k), JType.DOUBLE),
                 b.load("b", (k, j), JType.DOUBLE), JType.DOUBLE)
    b.mov(acc, b.bin("+", acc, prod, JType.DOUBLE))
    b.mov(k, b.bin("+", k, one, JType.INT))
    b.br(khead)
    b.set_insert(kdone)
    row = b.load("rows", (i,), JType.INT) if variant == "rows" else i
    col = j
    if variant == "cells":  # column (3j) % m
        col = b.bin("%", b.bin("*", j, b.const(3, JType.INT), JType.INT),
                    m, JType.INT)
    old = b.load("o", (row, col), JType.DOUBLE)
    if variant == "next":  # the cell iteration j + 1 stores
        old = b.load("o", (row, b.bin("+", j, one, JType.INT)), JType.DOUBLE)
    value = b.bin("+", acc, b.bin("*", old, b.const(0.5, JType.DOUBLE),
                                  JType.DOUBLE), JType.DOUBLE)
    b.store("o", (row, col), value)
    if variant == "break":  # leave j at the first negative cell
        cont = b.new_block("cont")
        b.cbr(b.bin("<", value, b.const(0.0, JType.DOUBLE), JType.BOOL),
              done, cont)
        b.set_insert(cont)
    b.mov(j, b.bin("+", j, one, JType.INT))
    b.br(head)
    b.set_insert(done)
    b.ret()
    return b.finish()


def _nest_storage(rng, lanes, m, kn, cols, rows):
    return ArrayStorage({
        "a": rng.standard_normal((lanes, kn)),
        "b": rng.standard_normal((kn, m)),
        "o": rng.standard_normal((lanes, cols)),
        "rows": np.array(rows, dtype=np.int32),
    })


#: the width rule the nests run under: small, so that most of them
#: collapse (the dispatcher's own is pinned in tests/ir/test_lockstep.py)
NEST_WIDTH = 16


def assert_collapse_matches(fn, env, make, lanes, fuel=None):
    """A narrow launch through the dispatcher (collapsed when it may,
    under :data:`NEST_WIDTH`) against the interpreter: arrays, Counts,
    per-lane totals and the exception, bitwise.  Returns the
    dispatcher's counters."""
    s1, s2 = make(), make()
    pl1, c1, _, e1 = _interp(fn, "direct", range(lanes), env, s1, fuel)
    obs = Instrumentation.recording()
    d = KernelDispatcher(cache=KernelCache(fuel=fuel or DEFAULT_FUEL),
                         obs=obs)
    with mock.patch.object(dispatch, "LOCKSTEP_MIN_LANES", NEST_WIDTH):
        pl2, e2 = _attempt(
            d.run_direct, fn, list(range(lanes)), env, s2, True
        )
    assert type(e1) is type(e2) and str(e1) == str(e2)
    _same_arrays(s1, s2)
    if e1 is None:
        assert pl1 == pl2
    if e1 is None or isinstance(e1, FuelExhausted):
        assert c1 == d.take_counts(fn)
    return obs.metrics.to_dict()["counters"]


class TestCollapsedNests:
    def test_the_collapse_test_sorts_the_variants(self):
        for variant in COLLAPSIBLE:
            assert collapse(build_nest(variant)) is not None, variant
        for variant in REFUSED:
            assert collapse(build_nest(variant)) is None, variant

    @given(
        variant=st.sampled_from(COLLAPSIBLE) | st.sampled_from(REFUSED),
        lanes=st.integers(1, NEST_WIDTH - 1),
        m=st.integers(0, 24),
        kn=st.integers(0, 3),
        fault=st.sampled_from([None, None, "cells", "rows", "fuel"]),
        fuel=st.integers(20, 600),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, **COMMON)
    def test_nests_match_interpreter(self, variant, lanes, m, kn, fault,
                                     fuel, seed):
        fn = build_nest(variant)
        # "cells": rows past the last lane and columns short of the trip;
        # "rows": lanes 2k and 2k + 1 share a row of o
        cols = m // 2 if fault == "cells" else m + 1
        rows = [(k // 2 if fault == "rows" else k) + (fault == "cells")
                for k in range(lanes)]

        def make():
            return _nest_storage(np.random.default_rng(seed), lanes + 1, m,
                                 kn, cols, rows)

        counters = assert_collapse_matches(
            fn, {"m": m, "kn": kn}, make, lanes,
            fuel if fault == "fuel" else None,
        )
        collapsed = variant in COLLAPSIBLE and lanes * m >= NEST_WIDTH
        assert counters.get("kernel.tier.lockstep", 0) == int(collapsed)
        assert counters.get("kernel.tier.src", 0) == int(not collapsed)
