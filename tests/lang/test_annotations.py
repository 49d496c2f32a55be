"""Annotation (Table I) grammar tests: every clause, plus error cases."""

import pytest

from repro.analysis.loopinfo import extract_loop_info
from repro.errors import AnnotationError
from repro.lang import annotated_loops, parse_program
from repro.lang.annotations import parse_annotation
from repro.lang.tokens import Pos

POS = Pos(1, 1)


def parse(text: str):
    return parse_annotation(text, POS)


class TestClauses:
    def test_parallel_alone(self):
        ann = parse("acc parallel")
        assert ann.parallel
        assert ann.scheme == "sharing"  # default
        assert not ann.scheme_explicit

    def test_private(self):
        ann = parse("acc parallel private(x, y, z)")
        assert ann.private == ["x", "y", "z"]

    def test_copyin_whole_array(self):
        ann = parse("acc parallel copyin(a)")
        assert ann.copyin[0].name == "a"
        assert ann.copyin[0].whole

    def test_copyin_section_bounds(self):
        ann = parse("acc parallel copyin(arr[1:1024])")
        sec = ann.copyin[0]
        assert sec.bounds({}) == (1, 1024)

    def test_section_with_symbolic_bounds(self):
        ann = parse("acc parallel copyout(c[0:n-1])")
        assert ann.copyout[0].bounds({"n": 10}) == (0, 9)

    def test_section_with_arithmetic(self):
        ann = parse("acc parallel create(t[2*k:3*k+1])")
        assert ann.create[0].bounds({"k": 4}) == (8, 13)

    def test_multiple_sections(self):
        ann = parse("acc parallel copyin(a[0:9], b[0:9], c)")
        assert [s.name for s in ann.copyin] == ["a", "b", "c"]

    def test_threads(self):
        ann = parse("acc parallel threads(256)")
        assert ann.threads == 256

    def test_scheme_sharing(self):
        ann = parse("acc parallel scheme(sharing)")
        assert ann.scheme == "sharing"
        assert ann.scheme_explicit

    def test_scheme_stealing(self):
        ann = parse("acc parallel scheme(stealing)")
        assert ann.scheme == "stealing"

    def test_all_clauses_together(self):
        ann = parse(
            "acc parallel private(t) copyin(a[0:n-1]) copyout(b[0:n-1]) "
            "create(w[0:7]) threads(128) scheme(stealing)"
        )
        assert ann.private == ["t"]
        assert ann.threads == 128
        assert ann.scheme == "stealing"
        assert len(ann.sections()) == 3

    def test_sections_directions(self):
        ann = parse("acc parallel copyin(a) copyout(b) create(c)")
        dirs = [d for d, _ in ann.sections()]
        assert dirs == ["copyin", "copyout", "create"]


class TestErrors:
    def test_missing_parallel(self):
        with pytest.raises(AnnotationError):
            parse("acc copyin(a)")

    def test_empty_directive(self):
        with pytest.raises(AnnotationError):
            parse("acc")

    def test_acc_glued_to_directive_rejected(self):
        # 'accparallel' must not parse as 'acc' + 'parallel'
        with pytest.raises(AnnotationError):
            parse("accparallel")

    def test_acc_glued_to_known_clause_rejected(self):
        with pytest.raises(AnnotationError):
            parse("acccopyin(a)")

    def test_acc_followed_by_tab_accepted(self):
        ann = parse("acc\tparallel")
        assert ann.parallel

    def test_unknown_clause(self):
        with pytest.raises(AnnotationError):
            parse("acc parallel gather(a)")

    def test_unknown_scheme(self):
        with pytest.raises(AnnotationError):
            parse("acc parallel scheme(greedy)")

    def test_threads_zero(self):
        with pytest.raises(AnnotationError):
            parse("acc parallel threads(0)")

    def test_threads_non_integer(self):
        with pytest.raises(AnnotationError):
            parse("acc parallel threads(n)")

    def test_duplicate_clause(self):
        with pytest.raises(AnnotationError):
            parse("acc parallel threads(2) threads(4)")

    def test_section_missing_colon(self):
        with pytest.raises(AnnotationError):
            parse("acc parallel copyin(a[5])")

    def test_unterminated_clause(self):
        with pytest.raises(AnnotationError):
            parse("acc parallel copyin(a[0:1]")

    def test_empty_list_element(self):
        with pytest.raises(AnnotationError):
            parse("acc parallel private(x,,y)")

    def test_unknown_bound_variable_at_eval(self):
        ann = parse("acc parallel copyin(a[0:m])")
        with pytest.raises(AnnotationError):
            ann.copyin[0].bounds({"n": 4})

    def test_division_in_bounds_java_semantics(self):
        ann = parse("acc parallel copyin(a[0:n/4])")
        # Java division truncates toward zero
        assert ann.copyin[0].bounds({"n": 10}) == (0, 2)
        assert ann.copyin[0].bounds({"n": -10}) == (0, -2)

    def test_parse_error_inside_clause_names_directive(self):
        with pytest.raises(AnnotationError, match=r"acc directive at 7:9"):
            parse_annotation("acc parallel copyin(a[0:])", Pos(7, 9))

    def test_lex_error_inside_clause_names_directive(self):
        with pytest.raises(AnnotationError, match=r"acc directive at 7:9"):
            parse_annotation("acc parallel copyin(a[0:0x])", Pos(7, 9))

    def test_non_integer_bound_at_eval(self):
        ann = parse("acc parallel copyin(a[0:n < 4])")
        with pytest.raises(AnnotationError, match="section of 'a'"):
            ann.copyin[0].bounds({"n": 4})


class TestBoundsAsLoopBounds:
    """A section bound evaluates exactly as a loop bound does."""

    SRC = """
    class K {
      static void f(int[] a, int n) {
        /* acc parallel copyin(a[0:(n>>1)-1]) */
        for (int i = 0; i <= (n >> 1) - 1; i++) { a[i] = 0; }
      }
    }
    """

    @pytest.mark.parametrize("n", [0, 1, 7, 10, -7, 2**31 - 1])
    def test_shift_bound_matches_loop_bound(self, n):
        (loop,) = annotated_loops(parse_program(self.SRC).methods[0])
        start, stop, _ = extract_loop_info(loop).bounds({"n": n})
        assert loop.annotation.copyin[0].bounds({"n": n}) == (start, stop - 1)

    def test_division_by_zero_is_java_message(self):
        ann = parse("acc parallel copyin(a[0:n/z])")
        with pytest.raises(ZeroDivisionError, match=r"^/ by zero$"):
            ann.copyin[0].bounds({"n": 8, "z": 0})

    def test_remainder_by_zero_is_java_message(self):
        ann = parse("acc parallel copyin(a[0:n%z])")
        with pytest.raises(ZeroDivisionError, match=r"^% by zero$"):
            ann.copyin[0].bounds({"n": 8, "z": 0})
