"""Recursive-descent parser for the mini-Java subset.

Grammar (informal)::

    program     := classdecl
    classdecl   := 'class' IDENT '{' method* '}'
    method      := modifier* type IDENT '(' params? ')' block
    type        := prim ('[' ']')*
    stmt        := block | if | while | for | return | decl ';'
                 | simple ';'
    simple      := assign | incdec | expr
    expr        := ternary over binary operators climbed by precedence
                   (tokens.BINARY_PRECEDENCE)

Annotation comments (``/* acc ... */``) lexed as ANNOTATION tokens attach
to the next ``for`` statement; an annotation not followed by a ``for`` is a
parse error, matching the paper's "declaration of annotation on each
for-loop" rule.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ParseError
from . import ast_nodes as A
from .annotations import parse_annotation
from .tokens import BINARY_PRECEDENCE, COMPOUND_ASSIGN_OPS, TokKind, Token


class Parser:
    """Parse a token stream (from :mod:`repro.lang.lexer`) into an AST.

    The stream is EOF-terminated and :meth:`_next` never moves past the
    EOF token, so a lookahead past a non-EOF token stays in bounds.
    """

    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    # -- token helpers ---------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self.toks[self.i + offset]

    def _next(self) -> Token:
        tok = self.toks[self.i]
        if tok.kind is not TokKind.EOF:
            self.i += 1
        return tok

    def _check(self, kind: TokKind) -> bool:
        return self.toks[self.i].kind is kind

    def _accept(self, kind: TokKind) -> Optional[Token]:
        if self._check(kind):
            return self._next()
        return None

    def _expect(self, kind: TokKind, what: str = "") -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            wanted = what or kind.value
            raise ParseError(
                f"expected {wanted} but found {tok.kind.value!r} "
                f"({tok.value!r}) at {tok.pos}"
            )
        return self._next()

    def _accept_kw(self, word: str) -> bool:
        if self._peek().is_kw(word):
            self._next()
            return True
        return False

    def _expect_kw(self, word: str) -> Token:
        tok = self._peek()
        if not tok.is_kw(word):
            raise ParseError(f"expected keyword {word!r} at {tok.pos}")
        return self._next()

    # -- declarations ------------------------------------------------------

    def parse_program(self) -> A.ClassDecl:
        """Parse a single top-level class and require EOF after it."""
        try:
            cls = self._classdecl()
        except RecursionError:
            raise ParseError(
                f"source nested too deeply at {self._peek().pos}"
            ) from None
        tok = self._peek()
        if tok.kind is not TokKind.EOF:
            raise ParseError(f"trailing input after class at {tok.pos}")
        return cls

    def _classdecl(self) -> A.ClassDecl:
        while self._peek().is_kw("public"):
            self._next()
        start = self._expect_kw("class")
        name = self._expect(TokKind.IDENT, "class name")
        self._expect(TokKind.LBRACE)
        methods: list[A.Method] = []
        while not self._check(TokKind.RBRACE):
            methods.append(self._method())
        self._expect(TokKind.RBRACE)
        return A.ClassDecl(start.pos, str(name.value), methods)

    def _method(self) -> A.Method:
        start = self._peek()
        while self._peek().kind is TokKind.KEYWORD and self._peek().value in (
            "public",
            "private",
            "static",
            "final",
        ):
            self._next()
        ret = self._type()
        name = self._expect(TokKind.IDENT, "method name")
        self._expect(TokKind.LPAREN)
        params: list[A.Param] = []
        if not self._check(TokKind.RPAREN):
            while True:
                ptype = self._type()
                pname = self._expect(TokKind.IDENT, "parameter name")
                params.append(A.Param(pname.pos, ptype, str(pname.value)))
                if not self._accept(TokKind.COMMA):
                    break
        self._expect(TokKind.RPAREN)
        body = self._block()
        return A.Method(start.pos, str(name.value), ret, params, body)

    _TYPE_WORDS = ("int", "long", "float", "double", "boolean", "void")

    def _at_type(self) -> bool:
        tok = self._peek()
        return tok.kind is TokKind.KEYWORD and tok.value in self._TYPE_WORDS

    def _type(self) -> A.Type:
        tok = self._peek()
        if not self._at_type():
            raise ParseError(f"expected a type at {tok.pos}")
        self._next()
        base = A.prim(str(tok.value))
        dims = 0
        while self._check(TokKind.LBRACKET) and self._peek(1).kind is TokKind.RBRACKET:
            self._next()
            self._next()
            dims += 1
        if dims:
            if base.name == "void":
                raise ParseError(f"void[] is not a type at {tok.pos}")
            return A.ArrayType(base, dims)
        return base

    # -- statements ----------------------------------------------------------

    def _block(self) -> A.Block:
        start = self._expect(TokKind.LBRACE)
        stmts: list[A.Stmt] = []
        while not self._check(TokKind.RBRACE):
            stmts.append(self._stmt())
        self._expect(TokKind.RBRACE)
        return A.Block(start.pos, stmts)

    def _stmt(self) -> A.Stmt:
        tok = self._peek()
        if tok.kind is TokKind.ANNOTATION:
            self._next()
            ann = parse_annotation(str(tok.value), tok.pos)
            nxt = self._peek()
            if not nxt.is_kw("for"):
                raise ParseError(
                    f"acc annotation at {tok.pos} must precede a for loop"
                )
            loop = self._for_stmt()
            loop.annotation = ann
            return loop
        if tok.kind is TokKind.LBRACE:
            return self._block()
        if tok.is_kw("if"):
            return self._if_stmt()
        if tok.is_kw("while"):
            return self._while_stmt()
        if tok.is_kw("for"):
            return self._for_stmt()
        if tok.is_kw("return"):
            self._next()
            value = None
            if not self._check(TokKind.SEMI):
                value = self._expr()
            self._expect(TokKind.SEMI)
            return A.Return(tok.pos, value)
        if self._at_type():
            decl = self._var_decl()
            self._expect(TokKind.SEMI)
            return decl
        stmt = self._simple_stmt()
        self._expect(TokKind.SEMI)
        return stmt

    def _var_decl(self) -> A.VarDecl:
        start = self._peek()
        vtype = self._type()
        name = self._expect(TokKind.IDENT, "variable name")
        init = None
        if self._accept(TokKind.ASSIGN):
            init = self._expr()
        return A.VarDecl(start.pos, vtype, str(name.value), init)

    def _simple_stmt(self) -> A.Stmt:
        """Assignment, increment/decrement, or expression statement."""
        start = self._peek()
        expr = self._expr()
        tok = self._peek()
        if tok.kind is TokKind.ASSIGN or tok.kind in COMPOUND_ASSIGN_OPS:
            if not isinstance(expr, (A.VarRef, A.ArrayRef)):
                raise ParseError(f"invalid assignment target at {start.pos}")
            self._next()
            value = self._expr()
            op = "" if tok.kind is TokKind.ASSIGN else COMPOUND_ASSIGN_OPS[tok.kind]
            return A.Assign(start.pos, expr, op, value)
        if tok.kind in (TokKind.PLUS_PLUS, TokKind.MINUS_MINUS):
            if not isinstance(expr, (A.VarRef, A.ArrayRef)):
                raise ParseError(f"invalid ++/-- target at {start.pos}")
            self._next()
            return A.IncDec(start.pos, expr, str(tok.value))
        return A.ExprStmt(start.pos, expr)

    def _if_stmt(self) -> A.If:
        start = self._expect_kw("if")
        self._expect(TokKind.LPAREN)
        cond = self._expr()
        self._expect(TokKind.RPAREN)
        then = self._stmt()
        els = None
        if self._accept_kw("else"):
            els = self._stmt()
        return A.If(start.pos, cond, then, els)

    def _while_stmt(self) -> A.While:
        start = self._expect_kw("while")
        self._expect(TokKind.LPAREN)
        cond = self._expr()
        self._expect(TokKind.RPAREN)
        body = self._stmt()
        return A.While(start.pos, cond, body)

    def _for_stmt(self) -> A.For:
        start = self._expect_kw("for")
        self._expect(TokKind.LPAREN)
        init: Optional[A.Stmt] = None
        if not self._check(TokKind.SEMI):
            init = self._var_decl() if self._at_type() else self._simple_stmt()
        self._expect(TokKind.SEMI)
        cond: Optional[A.Expr] = None
        if not self._check(TokKind.SEMI):
            cond = self._expr()
        self._expect(TokKind.SEMI)
        update: Optional[A.Stmt] = None
        if not self._check(TokKind.RPAREN):
            update = self._simple_stmt()
        self._expect(TokKind.RPAREN)
        body = self._stmt()
        return A.For(start.pos, init, cond, update, body)

    # -- expressions --------------------------------------------------------

    def _expr(self) -> A.Expr:
        """A conditional expression over the binary operators."""
        cond = self._binary(1)
        if self.toks[self.i].kind is TokKind.QUESTION:
            q = self._next()
            then = self._expr()
            self._expect(TokKind.COLON)
            other = self._expr()
            return A.Ternary(q.pos, cond, then, other)
        return cond

    def _binary(self, floor: int) -> A.Expr:
        """Precedence climbing over operators that bind at ``floor`` or
        tighter; every level is left-associative."""
        left = self._unary()
        toks = self.toks
        while True:
            tok = toks[self.i]
            # an operator's value is its spelling, and no other token's
            # value is an operator spelling
            prec = BINARY_PRECEDENCE.get(tok.value, 0)
            if prec < floor:
                return left
            self.i += 1
            right = self._binary(prec + 1)
            left = A.Binary(tok.pos, tok.value, left, right)

    _CASTABLE = ("int", "long", "float", "double", "boolean")

    def _unary(self) -> A.Expr:
        tok = self.toks[self.i]
        if tok.kind in (TokKind.MINUS, TokKind.PLUS, TokKind.NOT, TokKind.TILDE):
            self.i += 1
            operand = self._unary()
            if tok.kind is TokKind.PLUS:
                return operand
            return A.Unary(tok.pos, tok.value, operand)
        # Primitive cast: '(' type ')' unary — unambiguous because type
        # names are keywords in this subset.
        if (
            tok.kind is TokKind.LPAREN
            and self._peek(1).kind is TokKind.KEYWORD
            and self._peek(1).value in self._CASTABLE
            and self._peek(2).kind is TokKind.RPAREN
        ):
            self._next()
            type_tok = self._next()
            self._next()
            operand = self._unary()
            return A.Cast(tok.pos, A.prim(str(type_tok.value)), operand)
        return self._postfix()

    def _postfix(self) -> A.Expr:
        expr = self._primary()
        while True:
            kind = self.toks[self.i].kind
            if kind is TokKind.LBRACKET:
                if not isinstance(expr, (A.VarRef, A.ArrayRef)):
                    tok = self._peek()
                    raise ParseError(f"cannot index non-variable at {tok.pos}")
                tok = self._next()
                index = self._expr()
                self._expect(TokKind.RBRACKET)
                if isinstance(expr, A.VarRef):
                    expr = A.ArrayRef(tok.pos, expr, [index])
                else:
                    if len(expr.indices) >= 2:
                        raise ParseError(
                            f"arrays of more than 2 dimensions are not "
                            f"supported at {tok.pos}"
                        )
                    expr.indices.append(index)
            elif kind is TokKind.DOT:
                dot = self._next()
                member = self._expect(TokKind.IDENT, "member name")
                if member.value == "length":
                    if isinstance(expr, A.VarRef):
                        expr = A.Length(dot.pos, expr, axis=0)
                    elif isinstance(expr, A.ArrayRef) and len(expr.indices) == 1:
                        # a[i].length -> length of the second axis
                        expr = A.Length(dot.pos, expr.base, axis=1)
                    else:
                        raise ParseError(f".length on non-array at {dot.pos}")
                elif isinstance(expr, A.VarRef) and self._check(TokKind.LPAREN):
                    name = f"{expr.name}.{member.value}"
                    expr = self._call(name, dot.pos)
                else:
                    raise ParseError(
                        f"unsupported member access .{member.value} at {dot.pos}"
                    )
            else:
                return expr

    def _call(self, name: str, pos) -> A.Call:
        self._expect(TokKind.LPAREN)
        args: list[A.Expr] = []
        if not self._check(TokKind.RPAREN):
            while True:
                args.append(self._expr())
                if not self._accept(TokKind.COMMA):
                    break
        self._expect(TokKind.RPAREN)
        return A.Call(pos, name, args)

    def _primary(self) -> A.Expr:
        tok = self.toks[self.i]
        kind = tok.kind
        if kind is TokKind.IDENT:
            self.i += 1
            if self.toks[self.i].kind is TokKind.LPAREN:
                return self._call(str(tok.value), tok.pos)
            return A.VarRef(tok.pos, str(tok.value))
        if kind is TokKind.INT_LIT:
            self.i += 1
            return A.IntLit(tok.pos, int(tok.value))
        if kind is TokKind.LPAREN:
            self.i += 1
            inner = self._expr()
            self._expect(TokKind.RPAREN)
            return inner
        if kind is TokKind.LONG_LIT:
            self.i += 1
            return A.LongLit(tok.pos, int(tok.value))
        if kind is TokKind.DOUBLE_LIT:
            self.i += 1
            return A.DoubleLit(tok.pos, float(tok.value))
        if kind is TokKind.FLOAT_LIT:
            self.i += 1
            return A.FloatLit(tok.pos, float(tok.value))
        if kind is TokKind.BOOL_LIT:
            self.i += 1
            return A.BoolLit(tok.pos, bool(tok.value))
        raise ParseError(f"unexpected token {kind.value!r} at {tok.pos}")


def parse_program(source: str) -> A.ClassDecl:
    """Lex and parse ``source`` into a :class:`~repro.lang.ast_nodes.ClassDecl`."""
    from .lexer import tokenize

    return Parser(tokenize(source)).parse_program()
