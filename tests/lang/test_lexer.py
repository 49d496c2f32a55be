"""Lexer unit tests, and a differential against the hand-written lexer."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokKind
from repro.workloads import ALL_WORKLOADS
from tests.oracles import tokenize_oracle

ROOT = Path(__file__).resolve().parents[2]


def kinds(src):
    return [t.kind for t in tokenize(src)][:-1]  # drop EOF


def values(src):
    return [t.value for t in tokenize(src)][:-1]


class TestBasics:
    def test_empty_input_gives_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokKind.EOF

    def test_whitespace_only(self):
        assert kinds("   \t\n\r\n  ") == []

    def test_identifiers_and_keywords(self):
        toks = tokenize("int foo while bar2 _x")
        assert toks[0].is_kw("int")
        assert toks[1].kind is TokKind.IDENT and toks[1].value == "foo"
        assert toks[2].is_kw("while")
        assert toks[3].value == "bar2"
        assert toks[4].value == "_x"

    def test_boolean_literals(self):
        toks = tokenize("true false")
        assert toks[0].kind is TokKind.BOOL_LIT and toks[0].value is True
        assert toks[1].kind is TokKind.BOOL_LIT and toks[1].value is False

    def test_position_tracking(self):
        toks = tokenize("a\n  b")
        assert (toks[0].pos.line, toks[0].pos.col) == (1, 1)
        assert (toks[1].pos.line, toks[1].pos.col) == (2, 3)

    def test_trailing_blanks_lex_in_linear_time(self):
        # a scan that retried a run of blanks with no token after it at
        # each of the run's positions grew with the square of its length;
        # run in a child process so such a scan fails the test by its
        # timeout instead of hanging it
        script = (
            "import time\n"
            "from repro.lang.lexer import tokenize\n"
            "t = time.perf_counter()\n"
            "toks = tokenize('int x;' + ' ' * 100_000)\n"
            "print(time.perf_counter() - t, toks[-1].pos.col)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=30, check=True,
        )
        seconds, eof_col = run.stdout.split()
        assert float(seconds) < 0.5
        assert eof_col == "100007"


class TestNumbers:
    def test_int_literal(self):
        assert values("42") == [42]

    def test_hex_literal(self):
        assert values("0xFF 0x10001") == [255, 65537]

    def test_hex_long_literal(self):
        toks = tokenize("0xFFL")
        assert toks[0].kind is TokKind.LONG_LIT
        assert toks[0].value == 255

    def test_long_suffix(self):
        toks = tokenize("7L 8l")
        assert all(t.kind is TokKind.LONG_LIT for t in toks[:2])

    def test_double_literal(self):
        toks = tokenize("3.25")
        assert toks[0].kind is TokKind.DOUBLE_LIT
        assert toks[0].value == 3.25

    def test_float_suffix(self):
        toks = tokenize("1.5f 2F")
        assert toks[0].kind is TokKind.FLOAT_LIT
        assert toks[1].kind is TokKind.FLOAT_LIT

    def test_double_suffix(self):
        toks = tokenize("1d 2.5D")
        assert toks[0].kind is TokKind.DOUBLE_LIT
        assert toks[1].kind is TokKind.DOUBLE_LIT

    def test_exponent_forms(self):
        assert values("1e3 2.5e-2 1E+4") == [1000.0, 0.025, 10000.0]

    def test_leading_dot_number(self):
        toks = tokenize(".5")
        assert toks[0].kind is TokKind.DOUBLE_LIT and toks[0].value == 0.5

    def test_long_suffix_on_float_rejected(self):
        with pytest.raises(LexError):
            tokenize("1.5L")

    @pytest.mark.parametrize("src,where", [
        ("0x", "'0x' has no digits at 1:1"),
        ("0XL", "'0XL' has no digits at 1:1"),
        ("a[i] & 0x;", "'0x' has no digits at 1:8"),
        ("n\n  + 0xl", "'0xl' has no digits at 2:5"),
    ])
    def test_hex_prefix_without_digits_rejected(self, src, where):
        with pytest.raises(LexError, match=where):
            tokenize(src)

    def test_dot_after_number_not_consumed_twice(self):
        # "1.2.3" -> 1.2 then .3
        toks = tokenize("1.2.3")
        assert toks[0].value == 1.2
        assert toks[1].value == 0.3


class TestOperators:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("+", TokKind.PLUS),
            ("-", TokKind.MINUS),
            ("*", TokKind.STAR),
            ("/", TokKind.SLASH),
            ("%", TokKind.PERCENT),
            ("<<", TokKind.SHL),
            (">>", TokKind.SHR),
            (">>>", TokKind.USHR),
            ("<=", TokKind.LE),
            (">=", TokKind.GE),
            ("==", TokKind.EQ),
            ("!=", TokKind.NE),
            ("&&", TokKind.AND_AND),
            ("||", TokKind.OR_OR),
            ("&", TokKind.AMP),
            ("|", TokKind.PIPE),
            ("^", TokKind.CARET),
            ("~", TokKind.TILDE),
            ("++", TokKind.PLUS_PLUS),
            ("--", TokKind.MINUS_MINUS),
            ("+=", TokKind.PLUS_ASSIGN),
            ("<<=", TokKind.SHL_ASSIGN),
            (">>=", TokKind.SHR_ASSIGN),
        ],
    )
    def test_single_operator(self, text, kind):
        assert kinds(text) == [kind]

    def test_maximal_munch(self):
        assert kinds("a>>>b") == [TokKind.IDENT, TokKind.USHR, TokKind.IDENT]
        assert kinds("a>> >b") == [
            TokKind.IDENT, TokKind.SHR, TokKind.GT, TokKind.IDENT
        ]

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a @ b")


class TestComments:
    def test_line_comment_skipped(self):
        assert values("a // comment here\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* plain comment */ b") == ["a", "b"]

    def test_acc_comment_becomes_annotation(self):
        toks = tokenize("/* acc parallel */ for")
        assert toks[0].kind is TokKind.ANNOTATION
        assert toks[0].value == "acc parallel"

    def test_non_acc_comment_mentioning_acc_inside(self):
        # 'acc' must be the first word
        toks = tokenize("/* uses acc parallel */ x")
        assert toks[0].kind is TokKind.IDENT

    def test_acc_prefix_word_is_plain_comment(self):
        # 'accparallel' is not the 'acc' sentinel word
        toks = tokenize("/* accparallel */ x")
        assert toks[0].kind is TokKind.IDENT

    def test_acc_followed_by_tab_is_annotation(self):
        toks = tokenize("/* acc\tparallel */ for")
        assert toks[0].kind is TokKind.ANNOTATION

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")

    def test_multiline_block_comment_positions(self):
        toks = tokenize("/* a\nb\nc */ x")
        assert toks[0].value == "x"
        assert toks[0].pos.line == 3


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_int_literal_roundtrip(value):
    toks = tokenize(str(value))
    assert toks[0].kind is TokKind.INT_LIT
    assert toks[0].value == value


@given(
    st.floats(
        min_value=0.0,
        max_value=1e12,
        allow_nan=False,
        allow_infinity=False,
    )
)
def test_double_literal_roundtrip(value):
    text = repr(float(value))
    toks = tokenize(text)
    assert toks[0].kind is TokKind.DOUBLE_LIT
    assert toks[0].value == float(text)


class TestNonAscii:
    def test_letters_form_identifiers(self):
        assert values("café x\u00e9y") == ["café", "x\u00e9y"]

    def test_numeric_characters_continue_identifiers(self):
        assert values("a½ b²") == ["a½", "b²"]

    @pytest.mark.parametrize("char", ["½", "²", "٣", "\u00a0"])
    def test_nothing_else_starts_a_token(self, char):
        # '½' and the no-break space were rejected before too; the
        # non-ASCII digits '²' and '٣' once lexed as the start of a
        # number (int('٣') is 3, int('²') a bare ValueError) and are now
        # unexpected characters like any other non-ASCII non-letter
        message = f"unexpected character {char!r} at 1:3"
        with pytest.raises(LexError, match=re.escape(message)):
            tokenize(f"a {char}")

    def test_digit_after_number_is_not_part_of_it(self):
        with pytest.raises(LexError, match="unexpected character '٣' at 1:2"):
            tokenize("1٣")


# ---------------------------------------------------------------------------
# Differential: the hand-written lexer is the oracle
# ---------------------------------------------------------------------------

OPERATORS = [k.value for k in TokKind if not k.value.isidentifier()]

FRAGMENTS = OPERATORS + [
    "/*", "*/", "//", "acc", " acc ", "acc\t", "0x", "0X", ">>>=",
    "0", "1", "7", "9", "e", "E", "f", "F", "d", "D", "l", "L", ".",
    "1e3", "2.5", "e+", "e-", "0x1F",
    "x", "_", "n1", "int", "true", "parallel",
    " ", "\t", "\r", "\n", "#", '"',
]

#: Inputs at the edges of the number and comment alternatives.
DIRECTED = [
    "/*/", "/**/", "/* acc */", "/*acc parallel*/", "/* acc", "a /* b\n c */ d",
    "// x\ny", "1.5L", "x + 1e5L", "1e5", "1e+5f", "1E-2d", "1e", "1e+",
    "1.e5", ".5e-3F", "1.2.3", "1..2", "007", "0x1fL", "0xg", "00x1", "0xL",
    "x>>>=1", "a>>>b", "a>> >b", "\r\n\t x", "\x0bx", "\x0c", "$a",
    "a \t\r ", "/* a \r\t ", "/* a\n \t", "// a  ",
]


def outcome(lex, src):
    """A token list, or the exception's type and message."""
    try:
        return lex(src)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)


def assert_same_as_oracle(src):
    want = outcome(tokenize_oracle, src)
    got = outcome(tokenize, src)
    if isinstance(want, tuple) and want[0] is ValueError:
        # the oracle's int('0x', 16): a hex prefix without digits
        assert isinstance(got, tuple) and got[0] is LexError, (src, got)
        assert "has no digits" in got[1]
        return
    assert got == want, src


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=16).map("".join))
def test_matches_oracle_on_java_fragments(src):
    assert_same_as_oracle(src)


@settings(max_examples=500, deadline=None)
@given(st.text(st.characters(max_codepoint=127), max_size=24))
def test_matches_oracle_on_ascii_text(src):
    assert_same_as_oracle(src)


@pytest.mark.parametrize("src", DIRECTED)
def test_matches_oracle_on_directed_inputs(src):
    assert_same_as_oracle(src)


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_matches_oracle_on_workload_sources(workload):
    assert_same_as_oracle(workload.source)
    assert_same_as_oracle(workload.stripped_source())
