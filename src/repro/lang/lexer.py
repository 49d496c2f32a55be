"""Regular-expression lexer for the mini-Java subset.

One master pattern scans the source in a single ``re.finditer`` pass; its
operator alternatives are the :class:`TokKind` spellings, longest first so
maximal munch holds.  Each match takes the blanks before its token with
it, so a blank costs no match of its own; newlines stay matches of their
own, to count lines.  The lexer is annotation-aware: block comments whose
body starts with the word ``acc`` (the OpenACC-style directive marker of
Table I in the paper) are emitted as :attr:`TokKind.ANNOTATION` tokens
carrying the raw payload; all other comments are discarded.
"""

from __future__ import annotations

import re

from ..errors import LexError
from .tokens import KEYWORDS, Pos, TokKind, Token

#: Operator kinds by spelling.
_OPERATOR_KINDS = {k.value: k for k in TokKind if not k.value.isidentifier()}

# '>>>=' is matched so that it is reported, not lexed as '>>>' '='.
_OPERATORS = sorted([">>>=", *_OPERATOR_KINDS], key=len, reverse=True)

# Every alternative after the blanks starts with a non-blank, so the
# blanks are always taken whole.  Blanks with no token after them would
# match nothing, and a scan retrying at each of their positions would
# cost the square of their length: the scan stops before them.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<nl>\n)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<block>/\*.*?(?:\*/|\Z))"
    r"|(?P<hex>0[xX][0-9a-fA-F]*[lL]?)"
    r"|(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fFdDlL]?)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")"
    r"|(?P<other>[^ \t\r]))",
    re.DOTALL,
)
_NL, _COMMENT, _BLOCK, _HEX, _NUM, _WORD, _OP = (
    _TOKEN.groupindex[g]
    for g in ("nl", "comment", "block", "hex", "num", "word", "op")
)


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into a token list (EOF-terminated)."""
    out: list[Token] = []
    append = out.append
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source, 0, len(source.rstrip(" \t\r"))):
        group = m.lastindex
        if group == _NL:
            line, line_start = line + 1, m.end()
            continue
        if group == _COMMENT:
            continue
        text = m.group(group)
        start = m.start(group)
        pos = Pos(line, start - line_start + 1)
        if group == _WORD:
            if text == "true" or text == "false":
                append(Token(TokKind.BOOL_LIT, text == "true", pos))
            elif text in KEYWORDS:
                append(Token(TokKind.KEYWORD, text, pos))
            elif text[0].isalpha() or text[0] == "_":
                append(Token(TokKind.IDENT, text, pos))
            else:  # a numeric character such as '½' or '²'
                raise LexError(f"unexpected character {text[0]!r} at {pos}")
        elif group == _OP:
            kind = _OPERATOR_KINDS.get(text)
            if kind is None:
                raise LexError(f"unsupported operator {text!r} at {pos}")
            append(Token(kind, text, pos))
        elif group == _NUM:
            append(_number(text, pos))
        elif group == _BLOCK:
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
            if len(text) < 4 or not text.endswith("*/"):
                col = len(source) - line_start + 1
                raise LexError(f"unterminated block comment at {line}:{col}")
            body = text[2:-2].strip()
            # same word-boundary rule as parse_annotation: 'acc' then
            # whitespace (any kind, not just a space) or end of body
            if body == "acc" or (body.startswith("acc") and body[3:4].isspace()):
                append(Token(TokKind.ANNOTATION, body, pos))
        elif group == _HEX:
            long = text[-1] in "lL"
            digits = text[2:-1] if long else text[2:]
            if not digits:
                raise LexError(f"hex literal {text!r} has no digits at {pos}")
            kind = TokKind.LONG_LIT if long else TokKind.INT_LIT
            append(Token(kind, int(digits, 16), pos))
        else:
            raise LexError(f"unexpected character {text!r} at {pos}")
    append(Token(TokKind.EOF, None, Pos(line, len(source) - line_start + 1)))
    return out


def _number(text: str, pos: Pos) -> Token:
    """A decimal literal: ``text`` is digits, dot and exponent, then an
    optional one-letter suffix."""
    suffix = text[-1]
    if suffix in "fF":
        return Token(TokKind.FLOAT_LIT, float(text[:-1]), pos)
    if suffix in "dD":
        return Token(TokKind.DOUBLE_LIT, float(text[:-1]), pos)
    floating = "." in text or "e" in text or "E" in text
    if suffix in "lL":
        if floating:
            col = pos.col + len(text) - 1
            raise LexError(f"long suffix on floating literal at {pos.line}:{col}")
        return Token(TokKind.LONG_LIT, int(text[:-1]), pos)
    if floating:
        return Token(TokKind.DOUBLE_LIT, float(text), pos)
    return Token(TokKind.INT_LIT, int(text), pos)
