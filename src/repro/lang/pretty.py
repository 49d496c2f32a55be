"""Pretty-printer: AST back to mini-Java source.

Used by the code generators (to emit the translated Java/CUDA text a user
would inspect) and by the parser round-trip property tests
(``parse(pretty(ast)) == ast`` up to positions).
"""

from __future__ import annotations

from . import ast_nodes as A
from .tokens import BINARY_PRECEDENCE

_UNARY_PREC = max(BINARY_PRECEDENCE.values()) + 1


def fmt_type(t: A.Type) -> str:
    """Render a type."""
    return str(t)


def fmt_expr(expr: A.Expr, parent_prec: int = 0) -> str:
    """Render an expression, parenthesizing as needed."""
    text, prec = _expr(expr)
    if prec < parent_prec:
        return f"({text})"
    return text


def _expr(expr: A.Expr) -> tuple[str, int]:
    if isinstance(expr, A.IntLit):
        return str(expr.value), 99
    if isinstance(expr, A.LongLit):
        return f"{expr.value}L", 99
    if isinstance(expr, A.DoubleLit):
        return _fmt_double(expr.value), 99
    if isinstance(expr, A.FloatLit):
        return f"{_fmt_double(expr.value)}f", 99
    if isinstance(expr, A.BoolLit):
        return ("true" if expr.value else "false"), 99
    if isinstance(expr, A.VarRef):
        return expr.name, 99
    if isinstance(expr, A.ArrayRef):
        idx = "".join(f"[{fmt_expr(ix)}]" for ix in expr.indices)
        return f"{expr.base.name}{idx}", 99
    if isinstance(expr, A.Length):
        if expr.axis == 0:
            return f"{expr.array.name}.length", 99
        return f"{expr.array.name}[0].length", 99
    if isinstance(expr, A.Call):
        args = ", ".join(fmt_expr(a) for a in expr.args)
        return f"{expr.name}({args})", 99
    if isinstance(expr, A.Unary):
        inner = fmt_expr(expr.operand, _UNARY_PREC + 1)
        return f"{expr.op}{inner}", _UNARY_PREC
    if isinstance(expr, A.Cast):
        inner = fmt_expr(expr.operand, _UNARY_PREC + 1)
        return f"({expr.target.name}) {inner}", _UNARY_PREC
    if isinstance(expr, A.Binary):
        prec = BINARY_PRECEDENCE[expr.op]
        left = fmt_expr(expr.left, prec)
        right = fmt_expr(expr.right, prec + 1)  # left-assoc
        return f"{left} {expr.op} {right}", prec
    if isinstance(expr, A.Ternary):
        cond = fmt_expr(expr.cond, 1)
        then = fmt_expr(expr.then, 0)
        other = fmt_expr(expr.other, 0)
        return f"{cond} ? {then} : {other}", 0
    raise TypeError(f"cannot pretty-print {type(expr).__name__}")


def _fmt_double(value: float) -> str:
    text = repr(float(value))
    if "e" in text or "E" in text or "." in text or "inf" in text or "nan" in text:
        return text
    return text + ".0"


def fmt_stmt(stmt: A.Stmt, indent: int = 0) -> str:
    """Render a statement with ``indent`` levels of 4-space indentation."""
    pad = "    " * indent
    if isinstance(stmt, A.VarDecl):
        init = f" = {fmt_expr(stmt.init)}" if stmt.init is not None else ""
        return f"{pad}{fmt_type(stmt.type)} {stmt.name}{init};"
    if isinstance(stmt, A.Assign):
        return f"{pad}{_inline_stmt(stmt)};"
    if isinstance(stmt, A.IncDec):
        return f"{pad}{_inline_stmt(stmt)};"
    if isinstance(stmt, A.ExprStmt):
        return f"{pad}{fmt_expr(stmt.expr)};"
    if isinstance(stmt, A.Return):
        if stmt.value is None:
            return f"{pad}return;"
        return f"{pad}return {fmt_expr(stmt.value)};"
    if isinstance(stmt, A.Block):
        lines = [f"{pad}{{"]
        lines.extend(fmt_stmt(s, indent + 1) for s in stmt.stmts)
        lines.append(f"{pad}}}")
        return "\n".join(lines)
    if isinstance(stmt, A.If):
        out = f"{pad}if ({fmt_expr(stmt.cond)})\n{fmt_stmt(_as_block(stmt.then), indent)}"
        if stmt.els is not None:
            out += f"\n{pad}else\n{fmt_stmt(_as_block(stmt.els), indent)}"
        return out
    if isinstance(stmt, A.While):
        return (
            f"{pad}while ({fmt_expr(stmt.cond)})\n"
            f"{fmt_stmt(_as_block(stmt.body), indent)}"
        )
    if isinstance(stmt, A.For):
        parts = []
        if stmt.annotation is not None:
            parts.append(f"{pad}/* {format_annotation(stmt.annotation)} */")
        init = _inline_stmt(stmt.init) if stmt.init is not None else ""
        cond = fmt_expr(stmt.cond) if stmt.cond is not None else ""
        update = _inline_stmt(stmt.update) if stmt.update is not None else ""
        parts.append(f"{pad}for ({init}; {cond}; {update})")
        parts.append(fmt_stmt(_as_block(stmt.body), indent))
        return "\n".join(parts)
    raise TypeError(f"cannot pretty-print {type(stmt).__name__}")


def _as_block(stmt: A.Stmt) -> A.Block:
    if isinstance(stmt, A.Block):
        return stmt
    return A.Block(stmt.pos, [stmt])


def _inline_stmt(stmt: A.Stmt) -> str:
    """Render a simple statement with no trailing semicolon (for headers)."""
    if isinstance(stmt, A.VarDecl):
        init = f" = {fmt_expr(stmt.init)}" if stmt.init is not None else ""
        return f"{fmt_type(stmt.type)} {stmt.name}{init}"
    if isinstance(stmt, A.Assign):
        target = fmt_expr(stmt.target)
        op = f"{stmt.op}=" if stmt.op else "="
        return f"{target} {op} {fmt_expr(stmt.value)}"
    if isinstance(stmt, A.IncDec):
        return f"{fmt_expr(stmt.target)}{stmt.op}"
    if isinstance(stmt, A.ExprStmt):
        return fmt_expr(stmt.expr)
    raise TypeError(f"not a simple statement: {type(stmt).__name__}")


def format_annotation(ann) -> str:
    """Render an :class:`~repro.lang.annotations.Annotation` back to text."""
    parts = ["acc parallel"]
    if ann.private:
        parts.append(f"private({', '.join(ann.private)})")
    for direction in ("copyin", "copyout", "create"):
        sections = getattr(ann, direction)
        if sections:
            rendered = ", ".join(_format_section(s) for s in sections)
            parts.append(f"{direction}({rendered})")
    if ann.threads is not None:
        parts.append(f"threads({ann.threads})")
    if ann.scheme_explicit:
        parts.append(f"scheme({ann.scheme})")
    return " ".join(parts)


def _format_section(section) -> str:
    if section.whole:
        return section.name
    return f"{section.name}[{fmt_expr(section.low)}:{fmt_expr(section.high)}]"


def fmt_method(method: A.Method) -> str:
    """Render a static method declaration."""
    params = ", ".join(f"{fmt_type(p.type)} {p.name}" for p in method.params)
    header = f"static {fmt_type(method.ret)} {method.name}({params})"
    return f"{header}\n{fmt_stmt(method.body, 0)}"


def fmt_class(cls: A.ClassDecl) -> str:
    """Render a whole class."""
    body = "\n\n".join(_indent_block(fmt_method(m)) for m in cls.methods)
    return f"class {cls.name} {{\n{body}\n}}"


def _indent_block(text: str) -> str:
    return "\n".join("    " + line if line else line for line in text.split("\n"))
