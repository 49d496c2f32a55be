"""The explicit-stack ``walk`` visits what the recursive walk visits.

:func:`tests.oracles.walk_recursive` is the reference: for random nested
statements and expressions, and for every workload's annotated and
stripped AST, both walks must yield the same nodes, by identity, in the
same pre-order.  Unlike the reference, the production walk takes any
depth of nesting.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import ast_nodes as A
from repro.lang import parse_program
from repro.lang.tokens import Pos
from repro.workloads import ALL_WORKLOADS
from tests.oracles import walk_recursive

P = Pos(1, 1)
NAMES = st.sampled_from(["a", "b", "i", "n"])


def _exprs():
    leaves = st.one_of(
        st.integers(0, 9).map(lambda v: A.IntLit(P, v)),
        st.floats(0, 1).map(lambda v: A.DoubleLit(P, v)),
        st.booleans().map(lambda v: A.BoolLit(P, v)),
        NAMES.map(lambda n: A.VarRef(P, n)),
        NAMES.map(lambda n: A.Length(P, A.VarRef(P, n))),
    )

    def compound(kids):
        return st.one_of(
            st.builds(lambda op, l, r: A.Binary(P, op, l, r),
                      st.sampled_from(["+", "*", "<", "&&"]), kids, kids),
            st.builds(lambda e: A.Unary(P, "-", e), kids),
            st.builds(lambda e: A.Cast(P, A.INT, e), kids),
            st.builds(lambda c, t, o: A.Ternary(P, c, t, o), kids, kids, kids),
            st.builds(lambda args: A.Call(P, "Math.max", args),
                      st.lists(kids, max_size=3)),
            st.builds(lambda n, ix: A.ArrayRef(P, A.VarRef(P, n), ix),
                      NAMES, st.lists(kids, min_size=1, max_size=2)),
        )

    return st.recursive(leaves, compound, max_leaves=12)


EXPRS = _exprs()
TARGETS = st.one_of(
    NAMES.map(lambda n: A.VarRef(P, n)),
    st.builds(lambda n, ix: A.ArrayRef(P, A.VarRef(P, n), [ix]), NAMES, EXPRS),
)


def _stmts():
    leaves = st.one_of(
        st.builds(lambda n, init: A.VarDecl(P, A.INT, n, init),
                  NAMES, st.none() | EXPRS),
        st.builds(lambda t, op, v: A.Assign(P, t, op, v),
                  TARGETS, st.sampled_from(["", "+"]), EXPRS),
        st.builds(lambda t: A.IncDec(P, t, "++"), TARGETS),
        st.builds(lambda e: A.ExprStmt(P, e), EXPRS),
        st.builds(lambda v: A.Return(P, v), st.none() | EXPRS),
    )

    def compound(kids):
        return st.one_of(
            st.builds(lambda body: A.Block(P, body), st.lists(kids, max_size=4)),
            st.builds(lambda c, t, e: A.If(P, c, t, e),
                      EXPRS, kids, st.none() | kids),
            st.builds(lambda c, b: A.While(P, c, b), EXPRS, kids),
            st.builds(lambda i, c, u, b: A.For(P, i, c, u, b),
                      st.none() | kids, st.none() | EXPRS,
                      st.none() | kids, kids),
        )

    return st.recursive(leaves, compound, max_leaves=10)


def assert_same_walk(node: A.Node) -> None:
    got = list(A.walk(node))
    want = list(walk_recursive(node))
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))


@settings(max_examples=300, deadline=None)
@given(EXPRS)
def test_matches_recursive_walk_on_expressions(expr):
    assert_same_walk(expr)


@settings(max_examples=300, deadline=None)
@given(_stmts())
def test_matches_recursive_walk_on_statements(stmt):
    assert_same_walk(stmt)


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_matches_recursive_walk_on_workloads(workload):
    assert_same_walk(parse_program(workload.source))
    assert_same_walk(parse_program(workload.stripped_source()))


def test_walk_takes_any_depth():
    expr: A.Expr = A.VarRef(P, "a")
    depth = 3 * sys.getrecursionlimit()
    for _ in range(depth):
        expr = A.Unary(P, "-", expr)
    assert sum(1 for _ in A.walk(expr)) == depth + 1
