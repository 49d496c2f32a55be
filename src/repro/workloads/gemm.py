"""GEMM (PolyBench): dense matrix multiplication — sharing, mode A.

Paper input: ``n*512*512`` matrices, serial time 80.6 s.  The loop is
deterministic DOALL; the GPU dominates and task sharing cannot add much
(Figure 3, leftmost group).
"""

from __future__ import annotations

import numpy as np

from .base import Workload
from .ordered import matmul

SOURCE = """
class Gemm {
  static void run(double[][] A, double[][] B, double[][] C,
                  double alpha, double beta, int n) {
    /* acc parallel copyin(A[0:n-1], B[0:n-1], C[0:n-1]) copyout(C[0:n-1]) threads(256) scheme(sharing) */
    for (int i = 0; i < n; i++) {
      for (int j = 0; j < n; j++) {
        double acc = 0.0;
        for (int k = 0; k < n; k++) {
          acc += A[i][k] * B[k][j];
        }
        C[i][j] = alpha * acc + beta * C[i][j];
      }
    }
  }
}
"""


def make_inputs(n: int = 1, seed: int = 0, size: int = 40) -> dict:
    """``size`` is the matrix dimension (paper: 512); n scales it."""
    dim = size * max(1, n) if n > 1 else size
    rng = np.random.default_rng(seed)
    return {
        "A": rng.standard_normal((dim, dim)),
        "B": rng.standard_normal((dim, dim)),
        "C": rng.standard_normal((dim, dim)),
        "alpha": 1.5,
        "beta": 0.5,
        "n": dim,
    }


def reference(bindings: dict) -> dict[str, np.ndarray]:
    A = np.asarray(bindings["A"], dtype=np.float64)
    B = np.asarray(bindings["B"], dtype=np.float64)
    C = np.asarray(bindings["C"], dtype=np.float64)
    out = bindings["alpha"] * matmul(A, B) + bindings["beta"] * C
    return {"C": out}


GEMM = Workload(
    name="GEMM",
    origin="PolyBench",
    description="Dense matrix multiplication",
    scheme="sharing",
    method="run",
    source=SOURCE,
    paper_problem="n*512*512 matrix, serial 80597.8 ms",
    default_params={"size": 40},
    work_scale=2097.152,
    byte_scale=163.84,
    iter_scale=12.8,
    java_efficiency=0.0026,
    link_scale=1.0,
    make_inputs=make_inputs,
    reference=reference,
)
