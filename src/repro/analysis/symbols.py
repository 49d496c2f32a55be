"""Symbol tables: variable -> type environments per method and loop.

Japonica analyzes one static method at a time (JavaR's unit).  For each
annotated loop we need the types of every variable declared *outside* the
loop (method parameters plus locals declared earlier in the body) — those
are the candidates for live-in/live-out classification — while variables
declared inside the loop (including the induction variable) are ``temp``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..errors import AnalysisError
from ..lang import ast_nodes as A


@dataclass
class MethodScope:
    """Types of variables visible at some point in a method body."""

    types: dict[str, A.Type] = field(default_factory=dict)

    def copy(self) -> "MethodScope":
        return MethodScope(dict(self.types))

    def declare(self, name: str, vtype: A.Type) -> None:
        if name in self.types:
            raise AnalysisError(f"redeclaration of {name!r}")
        self.types[name] = vtype


def outer_scope_at_loop(method: A.Method, loop: A.For) -> MethodScope:
    """The scope visible to ``loop``: everything declared before it.

    Walks the method body tracking declarations; stops when the loop is
    reached.  Declarations in sibling branches that cannot reach the loop
    are still conservatively included only if they lexically precede it in
    the same block chain (mini-Java has no shadowing, so this is safe).
    """
    found = outer_scopes(method, [loop])
    if not found:
        raise AnalysisError(
            f"loop at {loop.pos} is not part of method {method.name!r}"
        )
    return found[id(loop)]


def outer_scopes(
    method: A.Method, loops: Sequence[A.For]
) -> dict[int, MethodScope]:
    """The scope visible to each of ``loops``, keyed by ``id(loop)``,
    from one walk of the method that stops once it has found them all;
    a redeclaration on the way raises :class:`AnalysisError`."""
    found: dict[int, MethodScope] = {}
    if loops:
        targets = {id(loop) for loop in loops}
        _collect_until(method, targets, MethodScope(), found)
    return found


def _collect_until(
    node: A.Node,
    targets: set[int],
    scope: MethodScope,
    found: dict[int, MethodScope],
) -> bool:
    """Record declarations in pre-order, and a copy of the scope at each
    target loop; True once every target is found.

    Declarations inside a compound statement (block, branch, loop) are
    scoped to it: they are rolled back when the walk leaves it, matching
    Java's block scoping — so two sibling loops may both declare
    ``int i``.
    """
    if id(node) in targets:
        found[id(node)] = scope.copy()
        if len(found) == len(targets):
            return True
    if isinstance(node, (A.VarDecl, A.Param)):
        scope.declare(node.name, node.type)
        return False
    if isinstance(node, A.Block):
        parts = node.stmts
    elif isinstance(node, A.If):
        parts = (node.then, node.els)
    elif isinstance(node, A.While):
        parts = (node.body,)
    elif isinstance(node, A.For):
        parts = (node.init, node.body)
    elif isinstance(node, A.Method):
        parts = (*node.params, node.body)
    else:
        return False
    before = set(scope.types)
    for part in parts:
        if part is not None and _collect_until(part, targets, scope, found):
            return True
    for name in set(scope.types) - before:
        del scope.types[name]
    return False


def loop_names(loop: A.For) -> tuple[set[str], set[str], set[str]]:
    """The names a loop declares (with its index), references and
    assigns, from one walk of its body."""
    declared: set[str] = set()
    if isinstance(loop.init, A.VarDecl):
        declared.add(loop.init.name)
    read: set[str] = set()
    written: set[str] = set()
    for node in A.walk(loop.body):
        if isinstance(node, A.VarRef):
            read.add(node.name)
        elif isinstance(node, (A.Assign, A.IncDec)):
            target = node.target
            written.add(getattr(target, "base", target).name)
        elif isinstance(node, A.VarDecl):
            declared.add(node.name)
    return declared, read, written


def declared_inside(loop: A.For) -> set[str]:
    """Names declared inside the loop (``temp`` class), incl. the index."""
    return loop_names(loop)[0]


def method_types(method: A.Method) -> dict[str, A.Type]:
    """All declarations in a method (params + every local).

    Distinct block scopes may reuse a name (e.g. two loops declaring
    ``int i``) as long as the types agree; a conflicting redeclaration is
    rejected because this flat map cannot represent it.
    """
    types: dict[str, A.Type] = {p.name: p.type for p in method.params}
    for node in A.walk(method.body):
        if isinstance(node, A.VarDecl):
            if node.name in types and types[node.name] != node.type:
                raise AnalysisError(
                    f"conflicting redeclaration of {node.name!r}"
                )
            types[node.name] = node.type
    return types
