"""Java numeric semantics: the one table every kernel engine reads.

The Crypt benchmark (IDEA cipher) depends on 32-bit wrap-around, truncating
division and masked shift counts, and the differential suites compare
engines bit for bit, so every rule is implemented precisely rather than
delegated to Python's unbounded ints or to numpy's defaults.

Each rule is a :class:`Rule` row keyed by operator and type
(:data:`BIN_RULES`, :data:`UN_RULES`, :data:`CAST_RULES`, looked up
through :func:`bin_rule`, :func:`un_rule` and, for intrinsics,
:func:`call_rule`) and carries three forms of the same semantics:

``expr``
    the inline Python expression the generated-source (``src``) tier
    writes, over the placeholders ``{a}`` and ``{b}``; the helpers it
    calls (``_fdiv``, ``_divi``, ...) are bound by :data:`SRC_GLOBALS`;
``scalar``
    ``expr`` compiled into a function of Python values.  The interpreter
    pre-binds it per instruction; :func:`binop`, :func:`unop`,
    :func:`cast` and :func:`intrinsic` (hosteval, consteval) look it up;
``array``
    the numpy form over all lanes of a launch, used by the vectorized
    engines.  It must equal the scalar form bitwise, NaN payloads and
    signed zeros included.  Where numpy's ufunc is not bitwise libm
    (``exp``, ``log``, ``tan``, ``pow``) it maps the scalar form over
    the lanes instead.

Array forms expect the caller to ignore floating-point error flags
(``np.errstate(all="ignore")``); integer arrays wrap modulo 2^32/2^64.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Optional

import numpy as np

from .instructions import JType

INT, LONG, FLOAT, DOUBLE, BOOL = (
    JType.INT, JType.LONG, JType.FLOAT, JType.DOUBLE, JType.BOOL,
)

_INT_MASK = 0xFFFFFFFF
_LONG_MASK = 0xFFFFFFFFFFFFFFFF

#: numpy lane dtype of each register type
NP_TYPE = {
    INT: np.int32,
    LONG: np.int64,
    FLOAT: np.float32,
    DOUBLE: np.float64,
    BOOL: np.bool_,
}


def wrap_int(value: int) -> int:
    """Wrap to Java int (signed 32-bit two's complement)."""
    value &= _INT_MASK
    return value - 0x100000000 if value >= 0x80000000 else value


def wrap_long(value: int) -> int:
    """Wrap to Java long (signed 64-bit two's complement)."""
    value &= _LONG_MASK
    return value - 0x10000000000000000 if value >= 0x8000000000000000 else value


def default_value(jtype: JType):
    """Java default field value for a type (0 / 0.0 / false)."""
    if jtype is BOOL:
        return False
    if jtype.is_floating:
        return 0.0
    return 0


# ---------------------------------------------------------------------------
# Scalar helpers the expressions call
# ---------------------------------------------------------------------------


def _divi(a, b):
    # Java int /: truncating; only MIN_VALUE / -1 overflows (to itself)
    if b == 0:
        raise ZeroDivisionError("/ by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        return -q
    return q if q != 0x80000000 else -0x80000000


def _divl(a, b):
    if b == 0:
        raise ZeroDivisionError("/ by zero")
    q = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        return -q
    return q if q != 0x8000000000000000 else -0x8000000000000000


def _rem(a, b):
    # Java int and long %: the dividend's sign; |a % b| < |b| never
    # overflows, so one function serves both types
    if b == 0:
        raise ZeroDivisionError("% by zero")
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _fdiv(a: float, b: float) -> float:
    # Python raises on a zero divisor; IEEE gives +-inf, and 0/0 or
    # NaN/0 give NaN, which Java semantics here fix as +NaN
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return float("nan")
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return sign * float("inf")
    return a / b


def _frem(a: float, b: float) -> float:
    # Java %: NaN for an infinite dividend or zero divisor (math.fmod
    # raises ValueError on both instead of returning IEEE's NaN)
    if b == 0.0 or math.isinf(a):
        return float("nan")
    return math.fmod(a, b)


def _round_float(value: float) -> float:
    """Round a double to the nearest representable IEEE-754 binary32."""
    try:
        return struct.unpack("f", struct.pack("f", value))[0]
    except OverflowError:
        return math.copysign(float("inf"), value)


def _saturate(value: float, bound: int) -> int:
    # Java (int)/(long) of a floating value: NaN -> 0, saturating,
    # truncating toward zero
    if value != value:
        return 0
    if value >= bound:
        return bound
    if value <= -bound - 1:
        return -bound - 1
    return int(value)


def _c_fi(value: float) -> int:
    return _saturate(value, 0x7FFFFFFF)


def _c_fl(value: float) -> int:
    return _saturate(value, 0x7FFFFFFFFFFFFFFF)


def _c_lf(value: int) -> float:
    # (float) of a long rounds once; float(value) would round to 53
    # bits first and could land on a binary32 tie
    if -(1 << 53) <= value <= 1 << 53:
        return _round_float(float(value))
    mag = abs(value)
    shift = mag.bit_length() - 24
    q, r = divmod(mag, 1 << shift)
    half = 1 << (shift - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return math.copysign(float(q << shift), value)


# ---------------------------------------------------------------------------
# Array helpers (numpy lanes)
# ---------------------------------------------------------------------------


def _a_fdiv(a, b):
    # numpy's 0/0 and NaN/0 give the hardware -NaN; _fdiv gives +NaN
    r = np.divide(a, b)
    bad = (b == 0) & ((a == 0) | np.isnan(a))
    return np.where(bad, np.nan, r) if np.any(bad) else r


def _a_frem(a, b):
    # numpy's fmod gives -NaN for inf % y and x % 0; _frem gives +NaN
    r = np.fmod(a, b)
    bad = np.isinf(a) | (b == 0)
    return np.where(bad, np.nan, r) if np.any(bad) else r


def _a_idiv(a, b):
    if np.any(b == 0):
        raise ZeroDivisionError("/ by zero")
    # a - a % b is an exact multiple of b, so floor division truncates;
    # (np.abs is no help: it wraps MIN_VALUE to itself)
    return np.floor_divide(a - np.fmod(a, b), b)


def _a_irem(a, b):
    if np.any(b == 0):
        raise ZeroDivisionError("% by zero")
    return np.fmod(a, b)  # truncated: the dividend's sign, like Java


def _a_ushr(signed, unsigned, mask):
    return lambda a, b: (
        np.asarray(a).astype(unsigned) >> np.asarray(b & mask).astype(unsigned)
    ).astype(signed)


def _a_saturate(dtype):
    info = np.iinfo(dtype)
    # 2^31 and 2^63 as doubles: x >= 2^63 is exactly x >= Long.MAX_VALUE
    # for a double x (float(iinfo.max) would round up and overflow)
    hi, lo = -float(info.min), float(info.min)

    def saturate(x):
        x = np.asarray(x, dtype=np.float64)
        big, small = x >= hi, x <= lo
        inside = np.where(np.isnan(x) | big | small, 0.0, x).astype(dtype)
        out = np.where(big, info.max, np.where(small, info.min, inside))
        return out.astype(dtype)
    return saturate


def _a_astype(dtype):
    return lambda x: np.asarray(x).astype(dtype)


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


class Rule:
    """One Java rule in its three forms (see the module docstring)."""

    __slots__ = ("expr", "array", "_scalar")

    def __init__(self, expr: str, array: Callable):
        self.expr = expr
        self.array = array
        self._scalar: Optional[Callable] = None

    def emit(self, a: str, b: str = "") -> str:
        """The inline expression over operand expressions ``a``/``b``."""
        return self.expr.format(a=a, b=b)

    @property
    def scalar(self) -> Callable:
        if self._scalar is None:
            params = "a, b" if "{b}" in self.expr else "a"
            self._scalar = eval(  # noqa: S307 - the table's own text
                f"lambda {params}: {self.emit('a', 'b')}", dict(SRC_GLOBALS)
            )
        return self._scalar


def _wrap_expr(core: str, jt: JType) -> str:
    """Two's-complement wrap of ``core``, with an in-range fast path.

    ``core`` is evaluated once into ``_v``; a value already in range is
    the result, and any other goes through ``((x & MASK) ^ SIGN) -
    SIGN``.  Both equal :func:`wrap_int` / :func:`wrap_long` for every
    integer ``x``.  The walrus stays parenthesized: :attr:`Rule.scalar`
    compiles this text as a lambda body.
    """
    if jt is INT:
        lo, hi, mask, sign = (
            "-0x80000000", "0x7FFFFFFF", "0xFFFFFFFF", "0x80000000"
        )
    else:
        lo, hi, mask, sign = (
            "-0x8000000000000000", "0x7FFFFFFFFFFFFFFF",
            "0xFFFFFFFFFFFFFFFF", "0x8000000000000000",
        )
    return (
        f"(_v if {lo} <= (_v := {core}) <= {hi} "
        f"else ((_v & {mask}) ^ {sign}) - {sign})"
    )


def _bin_rules() -> dict[tuple[str, JType], Rule]:
    rules = {}
    for op, fn in (("<", np.less), ("<=", np.less_equal),
                   (">", np.greater), (">=", np.greater_equal),
                   ("==", np.equal), ("!=", np.not_equal)):
        for jt in JType:
            rules[op, jt] = Rule(f"{{a}} {op} {{b}}", fn)
    rules["&", BOOL] = Rule("bool({a}) and bool({b})", np.logical_and)
    rules["|", BOOL] = Rule("bool({a}) or bool({b})", np.logical_or)
    rules["^", BOOL] = Rule("bool({a}) != bool({b})", np.logical_xor)
    for jt in (FLOAT, DOUBLE):
        for op, core, fn in (
            ("+", "{a} + {b}", np.add),
            ("-", "{a} - {b}", np.subtract),
            ("*", "{a} * {b}", np.multiply),
            ("/", "_fdiv({a}, {b})", _a_fdiv),
            ("%", "_fmod({a}, {b})", _a_frem),
        ):
            # numpy's binary32 arithmetic is correctly rounded, so it
            # equals the double result rounded to binary32 (_rf)
            expr = f"_rf({core})" if jt is FLOAT else core
            rules[op, jt] = Rule(expr, fn)
    for jt, bits, sfx, unsigned in ((INT, 31, "i", np.uint32),
                                    (LONG, 63, "l", np.uint64)):
        umask = "0xFFFFFFFF" if jt is INT else "0xFFFFFFFFFFFFFFFF"
        for op, core, fn in (
            ("+", "{a} + {b}", np.add),
            ("-", "{a} - {b}", np.subtract),
            ("*", "{a} * {b}", np.multiply),
            ("&", "{a} & {b}", np.bitwise_and),
            ("|", "{a} | {b}", np.bitwise_or),
            ("^", "{a} ^ {b}", np.bitwise_xor),
            ("<<", f"{{a}} << ({{b}} & {bits})",
             lambda a, b, m=bits: a << (b & m)),
            (">>", f"{{a}} >> ({{b}} & {bits})",
             lambda a, b, m=bits: a >> (b & m)),
            (">>>", f"({{a}} & {umask}) >> ({{b}} & {bits})",
             _a_ushr(NP_TYPE[jt], unsigned, bits)),
        ):
            rules[op, jt] = Rule(_wrap_expr(core, jt), fn)
        # a non-negative dividend over a positive divisor: Python's
        # floor // and % are Java's truncating ones and cannot overflow
        for op, py, helper, fn in (("/", "//", f"_div{sfx}", _a_idiv),
                                   ("%", "%", f"_rem{sfx}", _a_irem)):
            rules[op, jt] = Rule(
                f"({{a}} {py} {{b}} if {{a}} >= 0 < {{b}} "
                f"else {helper}({{a}}, {{b}}))",
                fn,
            )
    return rules


def _un_rules() -> dict[tuple[str, JType], Rule]:
    rules = {("!", BOOL): Rule("not {a}", np.logical_not)}
    for jt in (FLOAT, DOUBLE):
        rules["-", jt] = Rule("-{a}", np.negative)
    for jt in (INT, LONG):
        rules["-", jt] = Rule(_wrap_expr("-{a}", jt), np.negative)
        rules["~", jt] = Rule(_wrap_expr("~{a}", jt), np.invert)
    return rules


def _cast_rules() -> dict[tuple[JType, JType], Rule]:
    rules = {}
    for src in JType:
        rules[src, BOOL] = Rule("bool({a})", _a_astype(np.bool_))
        rules[src, DOUBLE] = Rule("float({a})", _a_astype(np.float64))
        rules[src, FLOAT] = Rule(
            "_c_lf({a})" if src is LONG else "_rf(float({a}))",
            _a_astype(np.float32),
        )
        for dst, helper in ((INT, "_c_fi"), (LONG, "_c_fl")):
            if src.is_floating:
                rule = Rule(f"{helper}({{a}})", _a_saturate(NP_TYPE[dst]))
            else:
                rule = Rule(
                    _wrap_expr("int({a})", dst), _a_astype(NP_TYPE[dst])
                )
            rules[src, dst] = rule
    return rules


#: ``BIN`` rules keyed by (operator, operand type)
BIN_RULES = _bin_rules()
#: ``UN`` rules keyed by (operator, result type)
UN_RULES = _un_rules()
#: ``CAST`` rules keyed by (source type, destination type)
CAST_RULES = _cast_rules()


def _undefined_bin(op: str, jtype: JType):
    if jtype is BOOL:
        raise ValueError(f"operator {op!r} not defined on boolean")
    if jtype.is_floating:
        raise ValueError(f"operator {op!r} not defined on floating types")
    raise ValueError(f"unknown operator {op!r}")


def _undefined_un(op: str):
    raise ValueError(f"unknown unary operator {op!r}")


def bin_rule(op: str, jtype: JType) -> Rule:
    """The rule of ``BIN op`` at operand type ``jtype``.

    An undefined pair gets a rule whose forms raise when executed, so
    every engine reports it the same way, at the same point.
    """
    rule = BIN_RULES.get((op, jtype))
    if rule is None:
        rule = Rule(
            f"_binop({op!r}, {{a}}, {{b}}, _JT[{jtype.value!r}])",
            lambda a, b: _undefined_bin(op, jtype),
        )
    return rule


def un_rule(op: str, jtype: JType) -> Rule:
    """The rule of ``UN op`` at result type ``jtype``."""
    rule = UN_RULES.get((op, jtype))
    if rule is None:
        rule = Rule(
            f"_unop({op!r}, {{a}}, _JT[{jtype.value!r}])",
            lambda a: _undefined_un(op),
        )
    return rule


def binop(op: str, a, b, jtype: JType):
    """Apply a BIN operator at type ``jtype`` with Java semantics.

    Comparison operators return Python bools; arithmetic returns a value of
    ``jtype``.
    """
    rule = BIN_RULES.get((op, jtype))
    if rule is None:
        _undefined_bin(op, jtype)
    return rule.scalar(a, b)


def unop(op: str, a, jtype: JType):
    """Apply a UN operator with Java semantics."""
    rule = UN_RULES.get((op, jtype))
    if rule is None:
        _undefined_un(op)
    return rule.scalar(a)


def cast(value, src: JType, dst: JType):
    """Java primitive conversion from ``src`` to ``dst``."""
    return CAST_RULES[src, dst].scalar(value)


# ---------------------------------------------------------------------------
# Math intrinsics
# ---------------------------------------------------------------------------


def _intr_sqrt(x):
    return math.sqrt(x) if x >= 0 else float("nan")


def _a_sqrt(x):
    return np.where(x >= 0, np.sqrt(x), np.nan)


def _intr_floor(x):
    # Java Math.floor maps +-inf and NaN to themselves (math.floor
    # raises) and preserves signed zero, e.g. floor(-0.0) == -0.0
    if not math.isfinite(x):
        return x
    r = float(math.floor(x))
    return math.copysign(r, x) if r == 0.0 else r


def _intr_ceil(x):
    # ceil(-0.5) is -0.0 in Java/C; int-based math.ceil gives +0.0
    if not math.isfinite(x):
        return x
    r = float(math.ceil(x))
    return math.copysign(r, x) if r == 0.0 else r


def _a_round(fn):
    # np.floor/np.ceil keep signed zeros but quiet a signalling NaN;
    # Java returns a non-finite argument itself
    return lambda x: np.where(np.isfinite(x), fn(x), x)


def _intr_sin(x):
    # Java: sin/cos/tan of an infinity is NaN; math.sin raises instead
    return math.sin(x) if not math.isinf(x) else float("nan")


def _intr_cos(x):
    return math.cos(x) if not math.isinf(x) else float("nan")


def _intr_tan(x):
    return math.tan(x) if not math.isinf(x) else float("nan")


def _a_trig(fn):
    # numpy gives the hardware -NaN for an infinity; the scalar form +NaN
    return lambda x: np.where(np.isinf(x), np.nan, fn(x))


def _intr_log(x):
    return math.log(x) if x > 0 else (float("-inf") if x == 0 else float("nan"))


def _intr_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return float("inf")


def _odd_integer(y: float) -> bool:
    return math.isfinite(y) and math.fmod(abs(y), 2.0) == 1.0


def _intr_pow(x: float, y: float) -> float:
    # CPython's math.pow is C99 pow that raises on poles and overflow;
    # Java also answers NaN for a NaN exponent and for |x| == 1 with an
    # infinite exponent, where C99 answers 1.0
    if y != y:
        return y
    if math.isinf(y) and abs(x) == 1.0:
        return float("nan")
    try:
        return math.pow(x, y)
    except OverflowError:
        return -math.inf if x < 0 and _odd_integer(y) else math.inf
    except ValueError:
        if x == 0.0:  # pole: +-0.0 to a negative power
            negative = math.copysign(1.0, x) < 0 and _odd_integer(y)
            return -math.inf if negative else math.inf
        return float("nan")  # negative base, non-integer exponent


def _intr_min(a, b):
    # Java Math.min: a NaN operand wins and -0.0 is below +0.0
    # (builtin min gives min(1.0, nan) == 1.0 and min(0.0, -0.0) == 0.0)
    if a != a or a < b or (a == b and math.copysign(1.0, b) > 0):
        return a
    return b


def _intr_max(a, b):
    if a != a or a > b or (a == b and math.copysign(1.0, a) > 0):
        return a
    return b


def _a_min(a, b):
    # np.minimum returns a NaN operand (the first when both are), as
    # Java does, but does not order -0.0 below +0.0
    r = np.minimum(a, b)
    zeros = (a == 0) & (b == 0)
    if not np.any(zeros):
        return r
    return np.where(zeros, np.where(np.signbit(a), a, b), r)


def _a_max(a, b):
    r = np.maximum(a, b)
    zeros = (a == 0) & (b == 0)
    if not np.any(zeros):
        return r
    return np.where(zeros, np.where(np.signbit(a), b, a), r)


def _a_lanes(fn, c=None, domain=None):
    """Array form that applies the scalar form lane by lane, or maps the
    C function ``c`` over lanes that are all in ``domain``: ``fn`` is
    ``c`` there wherever ``c`` does not raise."""
    def lanes(*args):
        cols = np.broadcast_arrays(*(np.asarray(x, np.float64) for x in args))
        if c is not None and (domain is None or domain(*cols).all()):
            try:
                out = np.fromiter(map(c, *(x.ravel().tolist() for x in cols)),
                                  np.float64, cols[0].size)
                return out.reshape(cols[0].shape)
            except OverflowError:
                pass
        rows = zip(*(col.ravel().tolist() for col in cols))
        out = np.array([fn(*row) for row in rows], dtype=np.float64)
        return out.reshape(cols[0].shape)
    return lanes


#: intrinsic -> (scalar form, array form) of its core, before the
#: conversion to the result type
_INTRINSICS = {
    "Math.sqrt": (_intr_sqrt, _a_sqrt),
    # a NaN lane is not > 0: it keeps _intr_log's canonical NaN
    "Math.exp": (_intr_exp, _a_lanes(_intr_exp, math.exp)),
    "Math.log": (_intr_log, _a_lanes(_intr_log, math.log, lambda x: x > 0)),
    "Math.pow": (_intr_pow, _a_lanes(_intr_pow)),
    "Math.abs": (abs, np.abs),
    "Math.min": (_intr_min, _a_min),
    "Math.max": (_intr_max, _a_max),
    "Math.floor": (_intr_floor, _a_round(np.floor)),
    "Math.ceil": (_intr_ceil, _a_round(np.ceil)),
    "Math.sin": (_intr_sin, _a_trig(np.sin)),
    "Math.cos": (_intr_cos, _a_trig(np.cos)),
    "Math.tan": (_intr_tan, _a_lanes(_intr_tan)),
}

#: Scalar intrinsic cores, module-level so the generated-source tier
#: can pre-bind them instead of paying a lookup per call.
INTRINSIC_FNS = {name: forms[0] for name, forms in _INTRINSICS.items()}


def call_rule(name: str, jtype: JType) -> tuple[Callable, Callable, Rule]:
    """``(scalar core, array core, result conversion)`` of an intrinsic.

    The core computes in double (or in the operands' integral type for
    abs/min/max); the conversion to ``jtype`` is the cast rule from that
    domain, so Math.abs(Integer.MIN_VALUE) wraps like Java.
    """
    scalar, array = _INTRINSICS[name]
    domain = DOUBLE if jtype.is_floating else LONG
    return scalar, array, CAST_RULES[domain, jtype]


def intrinsic(name: str, args, jtype: JType):
    """Evaluate a ``Math.*`` intrinsic."""
    scalar, _array, convert = call_rule(name, jtype)
    return convert.scalar(scalar(*args))


#: Names the rule expressions use, bound into every generated kernel.
SRC_GLOBALS = {
    "_fdiv": _fdiv,
    "_fmod": _frem,
    "_rf": _round_float,
    "_divi": _divi,
    "_divl": _divl,
    "_remi": _rem,
    "_reml": _rem,
    "_c_fi": _c_fi,
    "_c_fl": _c_fl,
    "_c_lf": _c_lf,
    "_binop": binop,
    "_unop": unop,
    "_JT": {t.value: t for t in JType},
}
