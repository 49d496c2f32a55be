"""Scope construction tests."""

import pytest

from repro.analysis.symbols import (
    declared_inside,
    method_types,
    outer_scope_at_loop,
    outer_scopes,
)
from repro.errors import AnalysisError
from repro.lang import ast_nodes as A
from repro.lang.parser import parse_program
from repro.workloads import ALL_WORKLOADS


SRC = """
class T {
  static void f(double[] a, int n) {
    int before = 1;
    for (int i = 0; i < n; i++) { a[i] = (double) before; }
    int after = 2;
    for (int i = 0; i < n; i++) { a[i] = (double) after; }
  }
}
"""


def loops(src=SRC):
    cls = parse_program(src)
    m = cls.methods[0]
    return m, A.find_loops(m.body)


class TestOuterScope:
    def test_params_visible(self):
        m, ls = loops()
        scope = outer_scope_at_loop(m, ls[0])
        assert set(scope.types) >= {"a", "n", "before"}

    def test_later_locals_not_visible_to_earlier_loop(self):
        m, ls = loops()
        scope = outer_scope_at_loop(m, ls[0])
        assert "after" not in scope.types

    def test_later_loop_sees_more(self):
        m, ls = loops()
        scope = outer_scope_at_loop(m, ls[1])
        assert "after" in scope.types

    def test_sibling_loop_index_not_leaked(self):
        # the first loop's 'i' must not pollute the second loop's scope
        m, ls = loops()
        scope = outer_scope_at_loop(m, ls[1])
        assert "i" not in scope.types

    def test_loop_not_in_method_rejected(self):
        m, ls = loops()
        other_m, other_ls = loops()
        with pytest.raises(AnalysisError):
            outer_scope_at_loop(m, other_ls[0])


REDECLARED = """
class T {
  static void f(double[] a, int n) {
    for (int i = 0; i < n; i++) { a[i] = 1.0; }
    int x = 1;
    int x = 2;
    for (int i = 0; i < n; i++) { a[i] = 2.0; }
  }
}
"""


class TestOuterScopes:
    @pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
    def test_one_walk_matches_a_walk_per_loop(self, workload):
        for m in parse_program(workload.source).methods:
            ls = A.annotated_loops(m)
            scopes = outer_scopes(m, ls)
            assert len(scopes) == len(ls)
            for loop in ls:
                assert scopes[id(loop)] == outer_scope_at_loop(m, loop)

    def test_redeclaration_before_a_later_loop_raises(self):
        m, ls = loops(REDECLARED)
        assert "x" not in outer_scope_at_loop(m, ls[0]).types
        with pytest.raises(AnalysisError, match="redeclaration of 'x'"):
            outer_scopes(m, ls)

    def test_redeclaration_after_the_last_loop_is_not_reached(self):
        m, ls = loops(REDECLARED)
        assert set(outer_scopes(m, ls[:1])) == {id(ls[0])}

    def test_no_loops_walks_nothing(self):
        m, _ = loops(REDECLARED)
        assert outer_scopes(m, []) == {}


class TestDeclaredInside:
    def test_index_and_body_locals(self):
        src = """
        class T { static void f(double[] a, int n) {
          for (int i = 0; i < n; i++) { double t = a[i]; int q = 1; a[i] = t * q; }
        } }
        """
        _, ls = loops(src)
        assert declared_inside(ls[0]) == {"i", "t", "q"}


class TestMethodTypes:
    def test_same_name_same_type_ok(self):
        m, _ = loops()
        types = method_types(m)
        assert types["i"] == A.INT

    def test_conflicting_redeclaration_rejected(self):
        src = """
        class T { static void f(int n) {
          for (int i = 0; i < n; i++) { n = i; }
          for (double i = 0.0; i < 1.0; i += 1.0) { n = 0; }
        } }
        """
        cls = parse_program(src)
        with pytest.raises(AnalysisError):
            method_types(cls.methods[0])
