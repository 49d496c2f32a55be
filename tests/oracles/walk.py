"""Oracle of :func:`repro.lang.ast_nodes.walk`: the recursive generator.

This is the pre-order walk the explicit-stack walk replaced, kept so the
traversal suite can hold the production walk to it node for node, by
identity and in order.  It imports only ``repro``.
"""

from __future__ import annotations

from typing import Iterator

from repro.lang.ast_nodes import Node


def walk_recursive(node: Node) -> Iterator[Node]:
    """Pre-order traversal of an AST subtree."""
    yield node
    for child in node.children():
        yield from walk_recursive(child)
