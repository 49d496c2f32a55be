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
from dataclasses import dataclass


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


@dataclass(frozen=True)
class Pos:
    """Source position (1-based line and column)."""

    line: int
    col: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` holds the literal's Python value (for literal kinds), the
    identifier/keyword spelling, or the raw annotation payload for
    :attr:`TokKind.ANNOTATION`.
    """

    kind: TokKind
    value: object
    pos: Pos

    def is_kw(self, word: str) -> bool:
        """Return True when this token is the keyword ``word``."""
        return self.kind is TokKind.KEYWORD and self.value == word

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.kind.name}, {self.value!r} @ {self.pos})"
