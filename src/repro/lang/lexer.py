"""Regular-expression lexer for the mini-Java subset.

One master pattern scans the source in a single ``re.finditer`` pass; its
operator alternatives are the :class:`TokKind` spellings, longest first so
maximal munch holds.  The lexer is annotation-aware: block comments whose
body starts with the word ``acc`` (the OpenACC-style directive marker of
Table I in the paper) are emitted as :attr:`TokKind.ANNOTATION` tokens
carrying the raw payload; all other comments are discarded.
"""

from __future__ import annotations

import re

from ..errors import LexError
from .tokens import KEYWORDS, Pos, TokKind, Token

# '>>>=' is matched so that it is reported, not lexed as '>>>' '='.
_OPERATORS = sorted(
    [">>>="] + [k.value for k in TokKind if not k.value.isidentifier()],
    key=len,
    reverse=True,
)

_TOKEN = re.compile(
    r"(?P<nl>\n)"
    r"|(?P<blank>[ \t\r]+)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<block>/\*.*?(?:\*/|\Z))"
    r"|(?P<hex>0[xX][0-9a-fA-F]*[lL]?)"
    r"|(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[fFdDlL]?)"
    r"|(?P<word>[^\W\d]\w*)"
    r"|(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")"
    r"|(?P<other>.)",
    re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into a token list (EOF-terminated)."""
    out: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        group = m.lastgroup
        if group == "nl":
            line, line_start = line + 1, m.end()
            continue
        if group == "blank" or group == "comment":
            continue
        text = m.group()
        pos = Pos(line, m.start() - line_start + 1)
        if group == "block":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rindex("\n") + 1
            if len(text) < 4 or not text.endswith("*/"):
                col = len(source) - line_start + 1
                raise LexError(f"unterminated block comment at {line}:{col}")
            body = text[2:-2].strip()
            # same word-boundary rule as parse_annotation: 'acc' then
            # whitespace (any kind, not just a space) or end of body
            if body == "acc" or (body.startswith("acc") and body[3:4].isspace()):
                out.append(Token(TokKind.ANNOTATION, body, pos))
        elif group == "word":
            if text == "true" or text == "false":
                out.append(Token(TokKind.BOOL_LIT, text == "true", pos))
            elif text in KEYWORDS:
                out.append(Token(TokKind.KEYWORD, text, pos))
            elif text[0].isalpha() or text[0] == "_":
                out.append(Token(TokKind.IDENT, text, pos))
            else:  # a numeric character such as '½' or '²'
                raise LexError(f"unexpected character {text[0]!r} at {pos}")
        elif group == "op":
            try:
                out.append(Token(TokKind(text), text, pos))
            except ValueError:
                raise LexError(f"unsupported operator {text!r} at {pos}") from None
        elif group == "num":
            out.append(_number(text, pos))
        elif group == "hex":
            long = text[-1] in "lL"
            digits = text[2:-1] if long else text[2:]
            if not digits:
                raise LexError(f"hex literal {text!r} has no digits at {pos}")
            kind = TokKind.LONG_LIT if long else TokKind.INT_LIT
            out.append(Token(kind, int(digits, 16), pos))
        else:
            raise LexError(f"unexpected character {text!r} at {pos}")
    out.append(Token(TokKind.EOF, None, Pos(line, len(source) - line_start + 1)))
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
