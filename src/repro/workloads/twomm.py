"""2MM (PolyBench) — stealing.

Paper input: ``n*256*256`` matrices, serial 26.4 s.  Two deterministic
DOALL loops where "the second loop depends on the output of the first.
Therefore, our task stealing scheme divided the two loops into two task
batches and processed the batches sequentially.  As the two loops are
DOALL, they are assigned to GPU for execution.  Here the GPU contributes
all the computations."
"""

from __future__ import annotations

import numpy as np

from .base import Workload
from .ordered import matmul

SOURCE = """
class TwoMM {
  static void run(double[][] A, double[][] B, double[][] C,
                  double[][] D, double[][] E, int n) {
    /* acc parallel scheme(stealing) */
    for (int i = 0; i < n; i++) {
      for (int j = 0; j < n; j++) {
        double acc = 0.0;
        for (int k = 0; k < n; k++) { acc += A[i][k] * B[k][j]; }
        D[i][j] = acc;
      }
    }
    /* acc parallel */
    for (int i = 0; i < n; i++) {
      for (int j = 0; j < n; j++) {
        double acc = 0.0;
        for (int k = 0; k < n; k++) { acc += C[i][k] * D[k][j]; }
        E[i][j] = acc;
      }
    }
  }
}
"""


def make_inputs(n: int = 1, seed: int = 0, size: int = 32) -> dict:
    dim = size * max(1, n) if n > 1 else size
    rng = np.random.default_rng(seed)
    return {
        "A": rng.standard_normal((dim, dim)),
        "B": rng.standard_normal((dim, dim)),
        "C": rng.standard_normal((dim, dim)),
        "D": np.zeros((dim, dim)),
        "E": np.zeros((dim, dim)),
        "n": dim,
    }


def reference(bindings: dict) -> dict[str, np.ndarray]:
    A = np.asarray(bindings["A"], dtype=np.float64)
    B = np.asarray(bindings["B"], dtype=np.float64)
    C = np.asarray(bindings["C"], dtype=np.float64)
    D = matmul(A, B)
    E = matmul(C, D)
    return {"D": D, "E": E}


TWOMM = Workload(
    name="2MM",
    origin="PolyBench",
    description="Two chained matrix multiplications (E = C (A B))",
    scheme="stealing",
    method="run",
    source=SOURCE,
    paper_problem="n*256*256 matrix, serial 26414.0 ms",
    default_params={"size": 32},
    work_scale=512.0,
    byte_scale=64.0,
    iter_scale=8.0,
    java_efficiency=0.00197,
    link_scale=1.0,
    make_inputs=make_inputs,
    reference=reference,
)
