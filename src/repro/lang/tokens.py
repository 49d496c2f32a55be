"""Token definitions for the mini-Java frontend.

Japonica consumes sequential Java source annotated with OpenACC-style
directives.  This module defines the token vocabulary for the Java subset
that the paper's benchmarks exercise (scalar and array arithmetic, control
flow, bitwise operations for Crypt/IDEA, and ``Math.*`` intrinsics).

It is also the front end's one operator table: each operator kind's value
is its spelling, which the lexer matches, and :data:`BINARY_PRECEDENCE`
ranks the binary ones for the parser and the pretty-printer.
"""

from __future__ import annotations

import enum


class TokKind(enum.Enum):
    """Lexical category of a token."""

    # Literals / identifiers
    INT_LIT = "int_lit"
    LONG_LIT = "long_lit"
    FLOAT_LIT = "float_lit"
    DOUBLE_LIT = "double_lit"
    BOOL_LIT = "bool_lit"
    IDENT = "ident"
    KEYWORD = "keyword"

    # Punctuation / operators
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMI = ";"
    COMMA = ","
    DOT = "."
    COLON = ":"
    QUESTION = "?"

    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    AMP_ASSIGN = "&="
    PIPE_ASSIGN = "|="
    CARET_ASSIGN = "^="
    SHL_ASSIGN = "<<="
    SHR_ASSIGN = ">>="

    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    PLUS_PLUS = "++"
    MINUS_MINUS = "--"

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="

    AND_AND = "&&"
    OR_OR = "||"
    NOT = "!"

    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    SHL = "<<"
    SHR = ">>"
    USHR = ">>>"

    ANNOTATION = "annotation"  # an /* acc ... */ comment, payload in .text
    EOF = "eof"


#: Java keywords recognised by the subset grammar.
KEYWORDS = frozenset(
    {
        "class",
        "static",
        "void",
        "int",
        "long",
        "float",
        "double",
        "boolean",
        "if",
        "else",
        "for",
        "while",
        "return",
        "new",
        "true",
        "false",
        "final",
        "public",
        "private",
    }
)

#: Compound-assignment token kinds mapped to the underlying binary operator.
COMPOUND_ASSIGN_OPS = {
    k: k.value[:-1] for k in TokKind if k.name.endswith("_ASSIGN")
}

#: Binary operators by spelling (each a :class:`TokKind` value) mapped to
#: their Java precedence level, loosest first.  Every level is
#: left-associative.  The parser climbs this table and the pretty-printer
#: parenthesizes by it.
BINARY_PRECEDENCE = {
    op: level
    for level, ops in enumerate(
        ["||", "&&", "|", "^", "&", "== !=", "< <= > >=", "<< >> >>>",
         "+ -", "* / %"],
        start=1,
    )
    for op in ops.split()
}


class Pos:
    """Source position (1-based line and column).

    A plain ``__slots__`` class, immutable by convention, with the
    ``repr``, ``==`` and ``hash`` a frozen dataclass would have: the
    lexer builds one per token, and a dataclass ``__init__`` pays
    ``object.__setattr__`` per field.
    """

    __slots__ = ("line", "col")

    def __init__(self, line: int, col: int):
        self.line = line
        self.col = col

    def __repr__(self) -> str:
        return f"Pos(line={self.line!r}, col={self.col!r})"

    def __eq__(self, other):
        if other.__class__ is not Pos:
            return NotImplemented
        return self.line == other.line and self.col == other.col

    def __hash__(self) -> int:
        return hash((self.line, self.col))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.line}:{self.col}"


class Token:
    """A single lexical token (a ``__slots__`` class, as :class:`Pos`).

    ``value`` holds the literal's Python value (for literal kinds), the
    identifier/keyword spelling, or the raw annotation payload for
    :attr:`TokKind.ANNOTATION`.
    """

    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: TokKind, value: object, pos: Pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __eq__(self, other):
        if other.__class__ is not Token:
            return NotImplemented
        return (self.kind, self.value, self.pos) == (
            other.kind, other.value, other.pos
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.value, self.pos))

    def is_kw(self, word: str) -> bool:
        """Return True when this token is the keyword ``word``."""
        return self.kind is TokKind.KEYWORD and self.value == word

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.kind.name}, {self.value!r} @ {self.pos})"
