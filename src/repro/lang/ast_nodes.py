"""Typed AST for the mini-Java subset.

The shapes mirror what the paper's JavaR-based translator works on: a class
with static methods whose bodies contain (possibly annotated) ``for`` loops
over scalars and 1-D/2-D arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .tokens import Pos

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimType:
    """A primitive Java type: int, long, float, double, boolean, void."""

    name: str

    def __str__(self) -> str:
        return self.name

    @property
    def is_integral(self) -> bool:
        return self.name in ("int", "long", "boolean")

    @property
    def is_floating(self) -> bool:
        return self.name in ("float", "double")


@dataclass(frozen=True)
class ArrayType:
    """An array type with element primitive type and dimensionality."""

    elem: PrimType
    dims: int

    def __str__(self) -> str:
        return str(self.elem) + "[]" * self.dims


Type = Union[PrimType, ArrayType]

INT = PrimType("int")
LONG = PrimType("long")
FLOAT = PrimType("float")
DOUBLE = PrimType("double")
BOOLEAN = PrimType("boolean")
VOID = PrimType("void")

_PRIM_BY_NAME = {t.name: t for t in (INT, LONG, FLOAT, DOUBLE, BOOLEAN, VOID)}


def prim(name: str) -> PrimType:
    """Look up a primitive type by keyword name."""
    return _PRIM_BY_NAME[name]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Node:
    """Base class carrying a source position."""

    pos: Pos

    def children(self) -> tuple["Node", ...]:
        """Direct child nodes, in source order (default: none)."""
        return ()


@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class LongLit(Expr):
    value: int


@dataclass
class DoubleLit(Expr):
    value: float


@dataclass
class FloatLit(Expr):
    value: float


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class VarRef(Expr):
    """Reference to a scalar or array variable by name."""

    name: str


@dataclass
class ArrayRef(Expr):
    """Array element access ``base[indices...]`` (1 or 2 indices)."""

    base: VarRef
    indices: list[Expr]

    def children(self) -> tuple[Node, ...]:
        return (self.base, *self.indices)


@dataclass
class Unary(Expr):
    """Unary operation: ``-``, ``!``, ``~``, ``+``."""

    op: str
    operand: Expr

    def children(self) -> tuple[Node, ...]:
        return (self.operand,)


@dataclass
class Binary(Expr):
    """Binary operation (arithmetic, comparison, logical, bitwise, shifts)."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass
class Ternary(Expr):
    """Conditional expression ``cond ? then : other``."""

    cond: Expr
    then: Expr
    other: Expr

    def children(self) -> tuple[Node, ...]:
        return (self.cond, self.then, self.other)


@dataclass
class Cast(Expr):
    """Primitive cast ``(type) expr``."""

    target: PrimType
    operand: Expr

    def children(self) -> tuple[Node, ...]:
        return (self.operand,)


@dataclass
class Call(Expr):
    """Call to an intrinsic, e.g. ``Math.sqrt(x)``; name is dotted."""

    name: str
    args: list[Expr]

    def children(self) -> tuple[Node, ...]:
        return tuple(self.args)


@dataclass
class Length(Expr):
    """``array.length`` on a 1-D axis of an array variable."""

    array: VarRef
    axis: int = 0

    def children(self) -> tuple[Node, ...]:
        return (self.array,)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statements."""


@dataclass
class VarDecl(Stmt):
    """Local variable declaration with optional initializer."""

    type: Type
    name: str
    init: Optional[Expr]

    def children(self) -> tuple[Node, ...]:
        return () if self.init is None else (self.init,)


@dataclass
class Assign(Stmt):
    """Assignment ``target op= value`` (op is '' for plain ``=``)."""

    target: Union[VarRef, ArrayRef]
    op: str
    value: Expr

    def children(self) -> tuple[Node, ...]:
        return (self.target, self.value)


@dataclass
class IncDec(Stmt):
    """``target++`` or ``target--`` used as a statement/for-update."""

    target: Union[VarRef, ArrayRef]
    op: str  # '++' or '--'

    def children(self) -> tuple[Node, ...]:
        return (self.target,)


@dataclass
class ExprStmt(Stmt):
    """Expression evaluated for effect (intrinsic calls)."""

    expr: Expr

    def children(self) -> tuple[Node, ...]:
        return (self.expr,)


@dataclass
class Block(Stmt):
    """Brace-delimited statement sequence."""

    stmts: list[Stmt] = field(default_factory=list)

    def children(self) -> tuple[Node, ...]:
        return tuple(self.stmts)


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    els: Optional[Stmt]

    def children(self) -> tuple[Node, ...]:
        if self.els is None:
            return (self.cond, self.then)
        return (self.cond, self.then, self.els)


@dataclass
class While(Stmt):
    cond: Expr
    body: Stmt

    def children(self) -> tuple[Node, ...]:
        return (self.cond, self.body)


@dataclass
class For(Stmt):
    """Canonical counted for loop.

    ``annotation`` carries the parsed ``/* acc ... */`` directive attached
    immediately before the loop, if any (see :mod:`repro.lang.annotations`).
    """

    init: Optional[Stmt]  # VarDecl or Assign
    cond: Optional[Expr]
    update: Optional[Stmt]  # Assign or IncDec
    body: Stmt
    annotation: Optional["object"] = None  # lang.annotations.Annotation

    def children(self) -> tuple[Node, ...]:
        return tuple(
            n for n in (self.init, self.cond, self.update, self.body)
            if n is not None
        )


@dataclass
class Return(Stmt):
    value: Optional[Expr]

    def children(self) -> tuple[Node, ...]:
        return () if self.value is None else (self.value,)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Param(Node):
    type: Type
    name: str


@dataclass
class Method(Node):
    """A static method: the unit Japonica analyzes and translates."""

    name: str
    ret: Type
    params: list[Param]
    body: Block

    def children(self) -> tuple[Node, ...]:
        return (*self.params, self.body)


@dataclass
class ClassDecl(Node):
    """A top-level class holding static methods."""

    name: str
    methods: list[Method]

    def children(self) -> tuple[Node, ...]:
        return tuple(self.methods)

    def method(self, name: str) -> Method:
        """Look up a method by name."""
        for m in self.methods:
            if m.name == name:
                return m
        raise KeyError(f"no method {name!r} in class {self.name}")


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of an AST subtree.

    Iterative over an explicit stack, so it costs no generator per level
    and no depth of nesting can exhaust the interpreter's stack.
    """
    stack = [node]
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        yield node
        kids = node.children()
        if kids:
            push(reversed(kids))


def find_loops(node: Node) -> list[For]:
    """All ``for`` loops in a subtree, in pre-order."""
    return [n for n in walk(node) if isinstance(n, For)]


def annotated_loops(node: Node) -> list[For]:
    """All ``for`` loops carrying an ``acc`` annotation, in pre-order."""
    return [n for n in find_loops(node) if n.annotation is not None]


def strip_annotations(node: Node) -> Node:
    """Remove every ``acc`` annotation in a subtree, in place.

    Used to produce bare variants of annotated programs (the annotation
    -inference acceptance suite compares what inference proposes for a
    stripped source against the hand directives it removed).
    """
    for n in walk(node):
        if isinstance(n, For):
            n.annotation = None
    return node
