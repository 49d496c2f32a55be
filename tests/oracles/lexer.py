"""Oracle of :func:`repro.lang.lexer.tokenize`: the hand-written lexer.

This is the per-character lexer the one-regex lexer replaced, kept
verbatim so the differential suite can hold the production lexer to it
token for token (kind, value and position) and error for error.  It
imports only ``repro``.

The lexer is annotation-aware: block comments whose body starts with the
word ``acc`` (the OpenACC-style directive marker of Table I in the paper)
are emitted as :attr:`TokKind.ANNOTATION` tokens carrying the raw payload;
all other comments are discarded.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.lang.tokens import KEYWORDS, Pos, TokKind, Token

_ONE_CHAR = {
    "(": TokKind.LPAREN,
    ")": TokKind.RPAREN,
    "{": TokKind.LBRACE,
    "}": TokKind.RBRACE,
    "[": TokKind.LBRACKET,
    "]": TokKind.RBRACKET,
    ";": TokKind.SEMI,
    ",": TokKind.COMMA,
    ".": TokKind.DOT,
    ":": TokKind.COLON,
    "?": TokKind.QUESTION,
    "~": TokKind.TILDE,
}

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    (">>>=", None),  # unsupported, reported explicitly
    ("<<=", TokKind.SHL_ASSIGN),
    (">>=", TokKind.SHR_ASSIGN),
    (">>>", TokKind.USHR),
    ("==", TokKind.EQ),
    ("!=", TokKind.NE),
    ("<=", TokKind.LE),
    (">=", TokKind.GE),
    ("&&", TokKind.AND_AND),
    ("||", TokKind.OR_OR),
    ("<<", TokKind.SHL),
    (">>", TokKind.SHR),
    ("++", TokKind.PLUS_PLUS),
    ("--", TokKind.MINUS_MINUS),
    ("+=", TokKind.PLUS_ASSIGN),
    ("-=", TokKind.MINUS_ASSIGN),
    ("*=", TokKind.STAR_ASSIGN),
    ("/=", TokKind.SLASH_ASSIGN),
    ("%=", TokKind.PERCENT_ASSIGN),
    ("&=", TokKind.AMP_ASSIGN),
    ("|=", TokKind.PIPE_ASSIGN),
    ("^=", TokKind.CARET_ASSIGN),
    ("+", TokKind.PLUS),
    ("-", TokKind.MINUS),
    ("*", TokKind.STAR),
    ("/", TokKind.SLASH),
    ("%", TokKind.PERCENT),
    ("<", TokKind.LT),
    (">", TokKind.GT),
    ("!", TokKind.NOT),
    ("&", TokKind.AMP),
    ("|", TokKind.PIPE),
    ("^", TokKind.CARET),
    ("=", TokKind.ASSIGN),
]


class Lexer:
    """Convert mini-Java source text into a token stream."""

    def __init__(self, source: str):
        self.src = source
        self.n = len(source)
        self.i = 0
        self.line = 1
        self.col = 1

    # -- low-level cursor helpers -------------------------------------

    def _peek(self, offset: int = 0) -> str:
        j = self.i + offset
        return self.src[j] if j < self.n else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.i < self.n and self.src[self.i] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.i += 1

    def _pos(self) -> Pos:
        return Pos(self.line, self.col)

    def _error(self, message: str) -> LexError:
        return LexError(f"{message} at {self.line}:{self.col}")

    # -- public API ----------------------------------------------------

    def tokens(self) -> list[Token]:
        """Lex the entire input and return the token list (EOF-terminated)."""
        out: list[Token] = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.kind is TokKind.EOF:
                return out

    # -- scanning ------------------------------------------------------

    def _next_token(self) -> Token:
        self._skip_trivia_collecting = None
        while True:
            self._skip_whitespace()
            if self.i >= self.n:
                return Token(TokKind.EOF, None, self._pos())
            c = self._peek()
            if c == "/" and self._peek(1) == "/":
                while self.i < self.n and self._peek() != "\n":
                    self._advance()
                continue
            if c == "/" and self._peek(1) == "*":
                tok = self._block_comment()
                if tok is not None:
                    return tok
                continue
            break

        pos = self._pos()
        c = self._peek()
        if c.isdigit() or (c == "." and self._peek(1).isdigit()):
            return self._number(pos)
        if c.isalpha() or c == "_":
            return self._word(pos)
        for text, kind in _OPERATORS:
            if self.src.startswith(text, self.i):
                if kind is None:
                    raise self._error(f"unsupported operator {text!r}")
                self._advance(len(text))
                return Token(kind, text, pos)
        if c in _ONE_CHAR:
            self._advance()
            return Token(_ONE_CHAR[c], c, pos)
        raise self._error(f"unexpected character {c!r}")

    def _skip_whitespace(self) -> None:
        while self.i < self.n and self._peek() in " \t\r\n":
            self._advance()

    def _block_comment(self) -> Token | None:
        """Consume ``/* ... */``; return an ANNOTATION token for acc comments."""
        pos = self._pos()
        self._advance(2)
        start = self.i
        while self.i < self.n and not self.src.startswith("*/", self.i):
            self._advance()
        if self.i >= self.n:
            raise self._error("unterminated block comment")
        body = self.src[start : self.i]
        self._advance(2)
        stripped = body.strip()
        # same word-boundary rule as parse_annotation: 'acc' then
        # whitespace (any kind, not just a space) or end of body
        if stripped == "acc" or (
            stripped.startswith("acc") and stripped[3:4].isspace()
        ):
            return Token(TokKind.ANNOTATION, stripped, pos)
        return None

    def _number(self, pos: Pos) -> Token:
        start = self.i
        nxt = self._peek(1)
        if self._peek() == "0" and nxt and nxt in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
            text = self.src[start : self.i]
            tail = self._peek()
            if tail and tail in "lL":
                self._advance()
                return Token(TokKind.LONG_LIT, int(text, 16), pos)
            return Token(TokKind.INT_LIT, int(text, 16), pos)

        saw_dot = False
        saw_exp = False
        while True:
            c = self._peek()
            if c.isdigit():
                self._advance()
            elif c == "." and not saw_dot and not saw_exp:
                saw_dot = True
                self._advance()
            elif c in "eE" and not saw_exp and self.i > start:
                nxt = self._peek(1)
                if nxt.isdigit() or (nxt in "+-" and self._peek(2).isdigit()):
                    saw_exp = True
                    self._advance()
                    if self._peek() in "+-":
                        self._advance()
                else:
                    break
            else:
                break
        text = self.src[start : self.i]
        suffix = self._peek()
        if suffix and suffix in "fF":
            self._advance()
            return Token(TokKind.FLOAT_LIT, float(text), pos)
        if suffix and suffix in "dD":
            self._advance()
            return Token(TokKind.DOUBLE_LIT, float(text), pos)
        if suffix and suffix in "lL":
            if saw_dot or saw_exp:
                raise self._error("long suffix on floating literal")
            self._advance()
            return Token(TokKind.LONG_LIT, int(text), pos)
        if saw_dot or saw_exp:
            return Token(TokKind.DOUBLE_LIT, float(text), pos)
        return Token(TokKind.INT_LIT, int(text), pos)

    def _word(self, pos: Pos) -> Token:
        start = self.i
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self.src[start : self.i]
        if text in ("true", "false"):
            return Token(TokKind.BOOL_LIT, text == "true", pos)
        if text in KEYWORDS:
            return Token(TokKind.KEYWORD, text, pos)
        return Token(TokKind.IDENT, text, pos)


def tokenize_oracle(source: str) -> list[Token]:
    """Lex ``source`` into a token list with the hand-written lexer."""
    return Lexer(source).tokens()
