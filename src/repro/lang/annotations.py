"""Parsing of ``/* acc ... */`` loop directives (Table I of the paper).

The directive format is::

    /* acc parallel [clause [, clause] ...] */

with the clause set:

``parallel``
    start parallel execution on the heterogeneous platform;
``private(list)``
    one copy of each listed variable per execution element;
``copyin(list)`` / ``copyout(list)`` / ``create(list)``
    device allocation and host<->device movement directions, where each
    list element is either a bare name or an array section ``arr[low:high]``
    whose bounds are integer expressions over loop-invariant scalars;
``threads(n)``
    number of device threads to use;
``scheme(s)``
    task scheduling scheme, ``sharing`` (default) or ``stealing``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..errors import AnalysisError, AnnotationError, LexError, ParseError
from .tokens import Pos, TokKind

SCHEMES = ("sharing", "stealing")


@dataclass
class ArraySection:
    """A data clause operand: a bare variable or ``name[low:high]``.

    ``low``/``high`` are mini-Java expressions (see :mod:`repro.lang.parser`)
    evaluated against the host scalar environment when the loop is entered;
    ``None`` bounds mean "the whole array".  Following the paper's
    ``copyin(arr[1:1024])`` example, the section covers indices
    ``low .. high`` inclusive of ``low`` and exclusive of ``high + 1`` —
    i.e. elements ``arr[low]`` through ``arr[high]``.
    """

    name: str
    low: Optional[object] = None  # lang.ast_nodes.Expr
    high: Optional[object] = None  # lang.ast_nodes.Expr

    @property
    def whole(self) -> bool:
        """True when no explicit bounds were given."""
        return self.low is None and self.high is None

    def bounds(self, env: Mapping[str, int]) -> Optional[tuple[int, int]]:
        """Evaluate ``(low, high_inclusive)`` against ``env``; None if whole.

        A bound is any loop-invariant integer expression a loop bound may
        be, evaluated the same way (Java integer semantics, so an integer
        division by zero raises ``ZeroDivisionError("/ by zero")``).
        """
        if self.whole:
            return None
        from ..analysis.consteval import eval_int

        try:
            return (eval_int(self.low, env), eval_int(self.high, env))
        except AnalysisError as exc:
            raise AnnotationError(
                f"bad annotation bound in section of {self.name!r}: {exc}"
            ) from None


@dataclass
class Annotation:
    """A parsed acc directive attached to one ``for`` loop."""

    pos: Pos
    parallel: bool = False
    private: list[str] = field(default_factory=list)
    copyin: list[ArraySection] = field(default_factory=list)
    copyout: list[ArraySection] = field(default_factory=list)
    create: list[ArraySection] = field(default_factory=list)
    threads: Optional[int] = None
    scheme: str = "sharing"
    scheme_explicit: bool = False

    def sections(self) -> list[tuple[str, ArraySection]]:
        """All data-clause sections as ``(direction, section)`` pairs."""
        out: list[tuple[str, ArraySection]] = []
        out.extend(("copyin", s) for s in self.copyin)
        out.extend(("copyout", s) for s in self.copyout)
        out.extend(("create", s) for s in self.create)
        return out


def _expr_key(expr) -> tuple:
    """Normalized structural identity of a bound expression.

    Ignores source positions and folds a unary minus on an integer
    literal into the literal itself (``-5`` pretty-prints as one token
    but re-parses as ``Unary('-', IntLit(5))``), so that a pretty-printed
    bound compares equal to the bound it came from.
    """
    from . import ast_nodes as A

    if isinstance(expr, (A.IntLit, A.LongLit)):
        return ("int", expr.value)
    if isinstance(expr, A.VarRef):
        return ("var", expr.name)
    if isinstance(expr, A.Length):
        return ("len", expr.array.name, expr.axis)
    if isinstance(expr, A.Unary):
        inner = _expr_key(expr.operand)
        if expr.op == "-" and inner[0] == "int":
            return ("int", -inner[1])
        return ("unary", expr.op, inner)
    if isinstance(expr, A.Binary):
        return ("bin", expr.op, _expr_key(expr.left), _expr_key(expr.right))
    if isinstance(expr, A.Cast):
        return ("cast", expr.target.name, _expr_key(expr.operand))
    return ("other", repr(expr))


def section_key(section: ArraySection) -> tuple:
    """Hashable structural identity of a data-clause section."""
    return (
        section.name,
        None if section.low is None else _expr_key(section.low),
        None if section.high is None else _expr_key(section.high),
    )


def section_equal(a: ArraySection, b: ArraySection) -> bool:
    """Structural equality of two sections, ignoring positions."""
    return section_key(a) == section_key(b)


def annotation_equal(a: Annotation, b: Annotation) -> bool:
    """Structural equality of two directives, ignoring positions.

    This is the round-trip contract: ``parse(format(ann))`` must compare
    equal to ``ann`` under this predicate (dataclass ``==`` would compare
    the embedded source positions, which a re-parse cannot reproduce).
    """
    return (
        a.parallel == b.parallel
        and a.private == b.private
        and [section_key(s) for s in a.copyin]
        == [section_key(s) for s in b.copyin]
        and [section_key(s) for s in a.copyout]
        == [section_key(s) for s in b.copyout]
        and [section_key(s) for s in a.create]
        == [section_key(s) for s in b.create]
        and a.threads == b.threads
        and a.scheme == b.scheme
        and a.scheme_explicit == b.scheme_explicit
    )


_LIST_CLAUSES = ("private", "copyin", "copyout", "create")


def parse_annotation(text: str, pos: Pos) -> Annotation:
    """Parse the payload of an ``/* acc ... */`` comment.

    ``text`` is the comment body with the surrounding ``/*`` ``*/`` already
    stripped, starting with the word ``acc``.  The clause list is parsed
    by the mini-Java :class:`~repro.lang.parser.Parser`, so section bounds
    are ordinary expressions with payload-relative positions.
    """
    from .lexer import tokenize
    from .parser import Parser

    body = text.strip()
    if body == "acc":
        raise AnnotationError(f"empty acc directive at {pos}")
    # word boundary: 'acc' must be followed by whitespace (or be the whole
    # body, handled above) — 'accparallel' is not an acc directive
    if not (body.startswith("acc") and body[3:4].isspace()):
        raise AnnotationError(
            f"malformed acc directive at {pos}: expected 'acc' followed "
            f"by whitespace, got {body.split(None, 1)[0]!r}"
        )
    try:
        return _clauses(Parser(tokenize(body[len("acc") :].strip())), pos)
    except (LexError, ParseError) as exc:
        raise AnnotationError(f"malformed acc directive at {pos}: {exc}") from exc


def _clauses(p, pos: Pos) -> Annotation:
    """``clause ([,] clause)*`` up to the end of the payload."""
    ann = Annotation(pos=pos)
    seen: set[str] = set()
    while not p._check(TokKind.EOF):
        if p._accept(TokKind.COMMA):
            continue
        tok = p._next()
        if tok.kind not in (TokKind.IDENT, TokKind.KEYWORD):
            raise AnnotationError(
                f"expected clause name in acc directive at {pos}, "
                f"found {tok.value!r}"
            )
        name = str(tok.value)
        # list-valued clauses may repeat: their operands merge (below).
        # Scalar-valued clauses (threads, scheme) and the bare 'parallel'
        # keyword must appear at most once — repeating them would either
        # silently last-write-win or be a user typo, so it is an error
        # that names the loop position.
        if name in seen and name not in _LIST_CLAUSES:
            raise AnnotationError(
                f"duplicate clause {name!r} in acc directive at {pos}"
            )
        seen.add(name)

        if name == "parallel":
            ann.parallel = True
        elif name == "private":
            for var in _list(p, _name):
                if var not in ann.private:
                    ann.private.append(var)
        elif name in _LIST_CLAUSES:
            existing = getattr(ann, name)
            for section in _list(p, _section):
                # repeated clauses merge; an identical section listed
                # twice contributes one transfer, not two
                if not any(section_equal(section, s) for s in existing):
                    existing.append(section)
        elif name == "threads":
            value = _single(p, _int_literal)
            if value <= 0:
                raise AnnotationError(f"threads({value}) must be positive")
            ann.threads = value
        elif name == "scheme":
            scheme = _single(p, _name)
            if scheme not in SCHEMES:
                raise AnnotationError(
                    f"unknown scheme {scheme!r}; expected one of {SCHEMES}"
                )
            ann.scheme = scheme
            ann.scheme_explicit = True
        else:
            raise AnnotationError(f"unknown acc clause {name!r} at {pos}")

    if not ann.parallel:
        raise AnnotationError(f"acc directive at {pos} is missing 'parallel'")
    return ann


def _list(p, item) -> list:
    """``'(' item (',' item)* ')'``."""
    p._expect(TokKind.LPAREN)
    items = [item(p)]
    while p._accept(TokKind.COMMA):
        items.append(item(p))
    p._expect(TokKind.RPAREN)
    return items


def _single(p, item):
    """``'(' item ')'``."""
    p._expect(TokKind.LPAREN)
    value = item(p)
    p._expect(TokKind.RPAREN)
    return value


def _name(p) -> str:
    return str(p._expect(TokKind.IDENT, "a name").value)


def _int_literal(p) -> int:
    return int(p._expect(TokKind.INT_LIT, "an integer literal").value)


def _section(p) -> ArraySection:
    """``name`` or ``name '[' expr ':' expr ']'``."""
    name = _name(p)
    if not p._accept(TokKind.LBRACKET):
        return ArraySection(name)
    low = p._expr()
    p._expect(TokKind.COLON, f"':' between the bounds of {name!r}")
    high = p._expr()
    p._expect(TokKind.RBRACKET)
    return ArraySection(name, low, high)
