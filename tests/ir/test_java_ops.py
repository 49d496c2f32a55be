"""Java numeric semantics tests (+ hypothesis properties)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ir import java_ops as J
from repro.ir.instructions import INTRINSICS, JType
from repro.ir.native import codegen

i32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
i64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestWrap:
    def test_int_overflow_wraps(self):
        assert J.wrap_int(2**31) == -(2**31)
        assert J.wrap_int(-(2**31) - 1) == 2**31 - 1

    def test_long_overflow_wraps(self):
        assert J.wrap_long(2**63) == -(2**63)

    @given(i32, i32)
    def test_add_matches_two_complement(self, a, b):
        got = J.binop("+", a, b, JType.INT)
        assert got == J.wrap_int(a + b)
        assert -(2**31) <= got <= 2**31 - 1

    @given(i32, i32)
    def test_mul_stays_in_range(self, a, b):
        got = J.binop("*", a, b, JType.INT)
        assert -(2**31) <= got <= 2**31 - 1


class TestDivision:
    def test_trunc_toward_zero(self):
        assert J.binop("/", -7, 2, JType.INT) == -3
        assert J.binop("/", 7, -2, JType.INT) == -3
        assert J.binop("%", -7, 2, JType.INT) == -1
        assert J.binop("%", 7, -2, JType.INT) == 1

    def test_divide_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            J.binop("/", 1, 0, JType.INT)

    def test_min_int_division_wraps(self):
        # Integer.MIN_VALUE / -1 overflows and wraps in Java
        assert J.binop("/", -(2**31), -1, JType.INT) == -(2**31)

    @given(i32, i32.filter(lambda v: v != 0))
    def test_div_rem_identity(self, a, b):
        q = J.binop("/", a, b, JType.INT)
        r = J.binop("%", a, b, JType.INT)
        assert J.wrap_int(q * b + r) == a


class TestShifts:
    def test_shift_count_masked(self):
        assert J.binop("<<", 1, 33, JType.INT) == 2  # 33 & 31 == 1
        assert J.binop("<<", 1, 65, JType.LONG) == 2

    def test_arithmetic_shift_right(self):
        assert J.binop(">>", -8, 1, JType.INT) == -4

    def test_unsigned_shift_right(self):
        assert J.binop(">>>", -1, 28, JType.INT) == 15
        assert J.binop(">>>", -1, 0, JType.INT) == -1

    @given(i32, st.integers(0, 100))
    def test_ushr_nonnegative_for_positive_count(self, a, count):
        got = J.binop(">>>", a, count, JType.INT)
        if count & 31 != 0:
            assert got >= 0


class TestFloat:
    def test_div_by_zero_gives_inf(self):
        assert J.binop("/", 1.0, 0.0, JType.DOUBLE) == float("inf")
        assert J.binop("/", -1.0, 0.0, JType.DOUBLE) == float("-inf")

    def test_zero_over_zero_nan(self):
        assert math.isnan(J.binop("/", 0.0, 0.0, JType.DOUBLE))

    def test_float32_rounding(self):
        got = J.binop("+", 0.1, 0.2, JType.FLOAT)
        import struct

        assert got == struct.unpack("f", struct.pack("f", 0.1 + 0.2))[0]

    def test_fmod_sign(self):
        assert J.binop("%", -5.5, 2.0, JType.DOUBLE) == math.fmod(-5.5, 2.0)


class TestCast:
    def test_double_to_int_truncates(self):
        assert J.cast(2.9, JType.DOUBLE, JType.INT) == 2
        assert J.cast(-2.9, JType.DOUBLE, JType.INT) == -2

    def test_nan_to_int_is_zero(self):
        assert J.cast(float("nan"), JType.DOUBLE, JType.INT) == 0

    def test_saturation(self):
        assert J.cast(1e20, JType.DOUBLE, JType.INT) == 2**31 - 1
        assert J.cast(-1e20, JType.DOUBLE, JType.INT) == -(2**31)

    def test_long_to_int_wraps(self):
        assert J.cast(2**32 + 5, JType.LONG, JType.INT) == 5

    def test_int_to_float_rounds(self):
        # 2^24 + 1 is not representable in binary32
        assert J.cast(2**24 + 1, JType.INT, JType.FLOAT) == float(2**24)

    def test_long_to_float_rounds_once(self):
        # float(v) rounds to 53 bits first, landing on a binary32 tie
        v = 2**60 + 2**36 + 1
        assert J.cast(v, JType.LONG, JType.FLOAT) == float(2**60 + 2**37)


class TestUnopsAndIntrinsics:
    def test_negate_min_int(self):
        assert J.unop("-", -(2**31), JType.INT) == -(2**31)

    def test_bitwise_not(self):
        assert J.unop("~", 0, JType.INT) == -1

    def test_sqrt_negative_nan(self):
        assert math.isnan(J.intrinsic("Math.sqrt", [-1.0], JType.DOUBLE))

    def test_log_zero(self):
        assert J.intrinsic("Math.log", [0.0], JType.DOUBLE) == float("-inf")

    def test_exp_overflow(self):
        assert J.intrinsic("Math.exp", [1e9], JType.DOUBLE) == float("inf")

    def test_min_max_int(self):
        assert J.intrinsic("Math.min", [3, 5], JType.INT) == 3
        assert J.intrinsic("Math.max", [3, 5], JType.INT) == 5

    def test_default_values(self):
        assert J.default_value(JType.INT) == 0
        assert J.default_value(JType.DOUBLE) == 0.0
        assert J.default_value(JType.BOOL) is False


# -- the table: scalar form, array form and emitted expression agree --------

_F64_EDGES = [
    0.0, -0.0, float("inf"), float("-inf"), float("nan"), -float("nan"),
    1.0, -1.0, 0.5, -2.5, 7.0, -10.0, 309.0, 310.0, 1e308, -1e308,
    2.0**31, -(2.0**31), 2.0**63, -(2.0**63), 5e-324, 3.4028235677973366e38,
]
_EDGES = {
    JType.DOUBLE: _F64_EDGES,
    JType.FLOAT: [J._round_float(v) for v in _F64_EDGES],
    JType.INT: [-(2**31), 2**31 - 1, 0, 1, -1, 7, -7, 31, 32, 33],
    JType.LONG: [-(2**63), 2**63 - 1, 0, 1, -1, 7, -7, 63, 64,
                 2**60 + 2**36 + 1, -(2**31)],
    JType.BOOL: [False, True],
}


def _bits(value, jtype):
    return np.asarray(value).astype(J.NP_TYPE[jtype]).reshape(-1).tobytes()


def _emitted(expr: str, **bound):
    """The expression as the src tier runs it: its text in the globals
    a generated kernel is compiled with."""
    params = "x, y" if "{b}" in expr else "x"
    text = f"lambda {params}: {expr.format(a='x', b='y')}"
    return eval(text, {**codegen._BASE_GLOBALS, **bound})  # noqa: S307


def _outcome(form, args, result_type):
    try:
        with np.errstate(all="ignore"):
            return _bits(form(*args), result_type)
    except Exception as exc:  # noqa: BLE001 - compared with its message
        return type(exc), str(exc)


def _agree(forms, operands, result_type):
    """The scalar, emitted and array forms give bitwise-equal results, or
    raise the same exception type with the same message, on each operand
    tuple."""
    scalar, emitted, array = forms
    for args in operands:
        values = [v for v, _t in args]
        lanes = [np.array([v], dtype=J.NP_TYPE[t]) for v, t in args]
        outcomes = [
            _outcome(scalar, values, result_type),
            _outcome(emitted, values, result_type),
            _outcome(array, lanes, result_type),
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2], (args, outcomes)


def _pairs(ta, tb):
    return [((a, ta), (b, tb)) for a in _EDGES[ta] for b in _EDGES[tb]]


class TestTable:
    @pytest.mark.parametrize("key", sorted(J.BIN_RULES, key=str))
    def test_bin_rules_agree(self, key):
        op, jt = key
        rule = J.BIN_RULES[key]
        tb = JType.INT if op in ("<<", ">>", ">>>") else jt
        result = JType.BOOL if op in ("<", "<=", ">", ">=", "==", "!=") else jt
        _agree(
            (rule.scalar, _emitted(rule.expr), rule.array),
            _pairs(jt, tb),
            result,
        )

    @pytest.mark.parametrize("key", sorted(J.UN_RULES, key=str))
    def test_un_rules_agree(self, key):
        rule = J.UN_RULES[key]
        _agree(
            (rule.scalar, _emitted(rule.expr), rule.array),
            [((v, key[1]),) for v in _EDGES[key[1]]],
            key[1],
        )

    @pytest.mark.parametrize("key", sorted(J.CAST_RULES, key=str))
    def test_cast_rules_agree(self, key):
        src, dst = key
        rule = J.CAST_RULES[key]
        _agree(
            (rule.scalar, _emitted(rule.expr), rule.array),
            [((v, src),) for v in _EDGES[src]],
            dst,
        )

    @pytest.mark.parametrize(
        "name,jtype",
        [(n, JType.DOUBLE) for n in sorted(J.INTRINSIC_FNS)]
        + [(n, t) for n in ("Math.abs", "Math.min", "Math.max")
           for t in (JType.FLOAT, JType.INT, JType.LONG)],
    )
    def test_intrinsic_rules_agree(self, name, jtype):
        scalar, array, convert = J.call_rule(name, jtype)
        arity = INTRINSICS[name]
        emitted = _emitted(
            convert.expr.replace("{a}", "_fn({a}, {b})" if arity == 2
                                 else "_fn({a})"),
            _fn=scalar,
        )
        operands = (
            _pairs(jtype, jtype) if arity == 2
            else [((v, jtype),) for v in _EDGES[jtype]]
        )
        _agree(
            (
                lambda *a: convert.scalar(scalar(*a)),
                emitted,
                lambda *a: convert.array(array(*a)),
            ),
            operands,
            jtype,
        )

    @pytest.mark.parametrize("name", ["Math.exp", "Math.log"])
    def test_mapped_intrinsics_match_lane_by_lane(self, name):
        """exp and log map their C function over lanes that are all in
        its domain; a vector with a lane outside it (a zero, an
        infinity, a NaN, an overflow) must still equal the scalar form
        lane by lane, bitwise."""
        scalar, array, _convert = J.call_rule(name, JType.DOUBLE)
        inside = [0.5, 2.5, 7.0, 1e-300, 300.0, 5e-324]
        outside = [0.0, -0.0, float("inf"), float("-inf"), float("nan"),
                   -float("nan"), 710.0, 1e308, -1.0, -745.5]
        vectors = [inside, outside, [-0.5, -3.0]]
        vectors += [inside[:k] + [e] + inside[k:]
                    for k, e in enumerate(outside)]
        for values in vectors:
            want = np.array([scalar(v) for v in values]).tobytes()
            with np.errstate(all="ignore"):
                got = array(np.array(values, dtype=np.float64))
            assert got.tobytes() == want, values
        for v in inside + outside:  # a uniform lane value, 0-d
            got = array(np.float64(v))
            assert got.shape == () and got.tobytes() == _bits(scalar(v),
                                                               JType.DOUBLE)


# -- the wrap's in-range fast path at the edges of the range ----------------
#
# Every rule that wraps returns its core's exact result when it is in
# range and wraps it otherwise.  Operands are drawn so that the exact
# result lands on MIN - 1, MIN, MAX or MAX + 1 of the result type, where
# in-range operands can reach it: bitwise ops, ``>>`` and the narrowing-
# free casts never leave the range, and an int never reaches a long
# bound, so (INT, LONG) and the BOOL casts have no edge to test.

_WIDTH = {JType.INT: 32, JType.LONG: 64}
_COUNT_LO, _COUNT_HI = -(2**31), 2**31 - 1  # shift counts are ints

_EXACT = {
    "+": lambda a, b, n: a + b,
    "-": lambda a, b, n: a - b,
    "*": lambda a, b, n: a * b,
    "&": lambda a, b, n: a & b,
    "|": lambda a, b, n: a | b,
    "^": lambda a, b, n: a ^ b,
    "<<": lambda a, b, n: a << (b & n - 1),
    ">>": lambda a, b, n: a >> (b & n - 1),
    ">>>": lambda a, b, n: (a & (1 << n) - 1) >> (b & n - 1),
}


def _bounds(n):
    return -(1 << n - 1), (1 << n - 1) - 1


def _factor_pairs(t, n):
    lo, hi = _bounds(n)
    pairs = []
    for d in range(1, 1 << 12):
        if t % d == 0:
            for a in (d, -d):
                if lo <= t // a <= hi:
                    pairs.append((a, t // a))
                    pairs.append((t // a, a))
    return pairs


def _shifted_onto(op, t, n):
    """``(a, count)`` of a shift whose exact result is ``t``."""
    lo, hi = _bounds(n)
    cases = []
    for k in range(n):
        if op == "<<":
            if lo <= t >> k <= hi and (t >> k) << k == t:
                cases.append((st.just(t >> k), k))
        else:  # every low bits the shift drops land on t too
            base = t << k
            top = base + (1 << k) - 1
            if op == ">>" and lo <= base and top <= hi:
                cases.append((st.integers(base, top), k))
            if op == ">>>" and 0 <= base and top < 1 << n:
                wrap = J.wrap_int if n == 32 else J.wrap_long
                cases.append((st.integers(base, top).map(wrap), k))
    # any count whose low bits are k
    return [
        st.tuples(a, st.integers(
            -((-_COUNT_LO + k) // n), (_COUNT_HI - k) // n,
        ).map(lambda j, k=k: k + n * j))
        for a, k in cases
    ]


def _landing(op, t, n):
    """Strategies of BIN operands at width ``n`` whose exact result is
    ``t`` (empty: in-range operands cannot reach it)."""
    lo, hi = _bounds(n)
    word = st.integers(lo, hi)
    if op == "+":
        return [st.integers(max(lo, t - hi), min(hi, t - lo))
                .map(lambda a: (a, t - a))]
    if op == "-":
        return [st.integers(max(lo, t + lo), min(hi, t + hi))
                .map(lambda a: (a, a - t))]
    if op == "*":
        return [st.sampled_from(_factor_pairs(t, n))]
    if op in ("&", "|", "^"):
        if not lo <= t <= hi:
            return []
        return [word.map({
            "&": lambda r: (t | r, t | ~r),
            "|": lambda r: (t & r, t & ~r),
            "^": lambda r: (r, t ^ r),
        }[op])]
    return _shifted_onto(op, t, n)


def _wrapping_cases():
    """``(label, rule, result type, exact, strategies by edge)``."""
    cases = []
    for jt, n in _WIDTH.items():
        lo, hi = _bounds(n)
        edges = (lo - 1, lo, hi, hi + 1)
        for op, exact in _EXACT.items():
            lands = [s.map(lambda ab, t=t: (t, ab))
                     for t in edges for s in _landing(op, t, n)]
            cases.append((f"{op} {jt.value}", J.BIN_RULES[op, jt], jt,
                          lambda a, b, f=exact, n=n: f(a, b, n), lands))
        for op, exact, solve in (("-", lambda a: -a, lambda t: -t),
                                 ("~", lambda a: ~a, lambda t: ~t)):
            lands = [st.just((t, (solve(t),)))
                     for t in edges if lo <= solve(t) <= hi]
            cases.append((f"un{op} {jt.value}", J.UN_RULES[op, jt], jt,
                          exact, lands))
    for src, dst in ((JType.INT, JType.INT), (JType.LONG, JType.INT),
                     (JType.LONG, JType.LONG)):
        lo, hi = _bounds(_WIDTH[dst])
        s_lo, s_hi = _bounds(_WIDTH[src])
        lands = [st.just((t, (t,))) for t in (lo - 1, lo, hi, hi + 1)
                 if s_lo <= t <= s_hi]
        cases.append((f"({dst.value}) {src.value}", J.CAST_RULES[src, dst],
                      dst, lambda a: a, lands))
    return cases


_WRAPPING = _wrapping_cases()


@pytest.mark.parametrize(
    "rule,jtype,exact,lands", [c[1:] for c in _WRAPPING],
    ids=[c[0] for c in _WRAPPING],
)
@given(data=st.data())
def test_wrap_fast_path_at_range_edges(rule, jtype, exact, lands, data):
    assert lands, "every wrapping rule here reaches an edge"
    t, args = data.draw(st.one_of(lands))
    assert exact(*args) == t
    wrap = J.wrap_int if jtype is JType.INT else J.wrap_long
    for form in (rule.scalar, _emitted(rule.expr)):
        got = form(*args)
        assert type(got) is int
        assert got == wrap(t)
