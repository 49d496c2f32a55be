"""Cross-cutting semantic guarantees at the program level."""

import numpy as np
import pytest

from repro import Japonica
from repro.errors import MemoryFault


class TestShortCircuitGuards:
    """&& / || must guard array accesses, in every execution path."""

    SRC = """
    class T {
      static void f(double[] a, double[] b, int n) {
        /* acc parallel */
        for (int i = 0; i < n; i++) {
          if (i > 0 && a[i - 1] > 0.0) { b[i] = a[i - 1]; }
          else { b[i] = 0.0; }
        }
      }
    }
    """

    @pytest.mark.parametrize("strategy", ["serial", "cpu", "gpu", "japonica"])
    def test_guarded_load_never_faults(self, strategy):
        program = Japonica().compile(self.SRC)
        n = 64
        rng = np.random.default_rng(0)
        a = rng.standard_normal(n)
        res = program.run(a=a, b=np.zeros(n), n=n, strategy=strategy)
        expected = np.zeros(n)
        expected[1:] = np.where(a[:-1] > 0, a[:-1], 0.0)
        assert np.array_equal(res.arrays["b"], expected)

    def test_or_short_circuit(self):
        src = """
        class T {
          static void f(double[] a, double[] b, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
              if (i == 0 || a[i - 1] > 0.0) { b[i] = 1.0; }
            }
          }
        }
        """
        program = Japonica().compile(src)
        n = 8
        a = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        res = program.run(a=a, b=np.zeros(n), n=n, strategy="serial")
        assert res.arrays["b"][0] == 1.0


class TestDataClauseFaults:
    """A wrong user annotation must fail loudly, like real CUDA would."""

    def test_create_only_clause_for_read_array_faults(self):
        src = """
        class T {
          static void f(double[] x, double[] y, int n) {
            /* acc parallel create(x[0:n-1]) copyout(y[0:n-1]) */
            for (int i = 0; i < n; i++) { y[i] = x[i] * 2.0; }
          }
        }
        """
        program = Japonica().compile(src)
        n = 16
        with pytest.raises(MemoryFault, match="copyin"):
            program.run(
                x=np.ones(n), y=np.zeros(n), n=n, strategy="japonica"
            )

    def test_correct_clause_passes(self):
        src = """
        class T {
          static void f(double[] x, double[] y, int n) {
            /* acc parallel copyin(x[0:n-1]) copyout(y[0:n-1]) */
            for (int i = 0; i < n; i++) { y[i] = x[i] * 2.0; }
          }
        }
        """
        program = Japonica().compile(src)
        n = 16
        res = program.run(x=np.ones(n), y=np.zeros(n), n=n, strategy="japonica")
        assert np.array_equal(res.arrays["y"], np.full(n, 2.0))


class TestJavaNumericSemantics:
    def test_int_overflow_end_to_end(self):
        src = """
        class T {
          static void f(int[] v, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { v[i] = v[i] * 2147483647; }
          }
        }
        """
        program = Japonica().compile(src)
        v = np.array([2, 3, -5], dtype=np.int32)
        expected = (v.astype(np.int64) * 2147483647).astype(np.int32)
        for strategy in ("serial", "cpu", "japonica"):
            res = program.run(v=v, n=3, strategy=strategy)
            assert np.array_equal(res.arrays["v"], expected), strategy

    def test_length_expression(self):
        src = """
        class T {
          static void f(double[] a, double[] out, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) {
              out[i] = (double) a.length + a[i];
            }
          }
        }
        """
        program = Japonica().compile(src)
        n = 8
        a = np.arange(n, dtype=np.float64)
        res = program.run(a=a, out=np.zeros(n), n=n, strategy="japonica")
        assert np.array_equal(res.arrays["out"], n + a)


class TestTaskSplit:
    def test_split_partitions_iteration_space(self):
        from repro.scheduler.task import Task
        from repro.translate.translator import Translator

        src = """
        class T {
          static void f(double[] a, int n) {
            /* acc parallel */
            for (int i = 0; i < n; i++) { a[i] = 1.0; }
          }
        }
        """
        unit = Translator().translate_source(src)
        task = Task(unit.all_loops[0])
        env = {"n": 10}
        parts = task.split(3, env)
        # sub-loop tasks keep the loop's range, sliced
        assert [p.indices(env) for p in parts] == [
            range(0, 4), range(4, 7), range(7, 10)
        ]
        assert [p.id for p in parts] == ["f#0/0", "f#0/1", "f#0/2"]
