"""MVT (PolyBench): matrix-vector products with the transposed matrix —
sharing, mode A.

Paper input: ``n*2048*2048`` matrix, serial 379.7 ms.  Two deterministic
DOALL loops (x1 += A y1; x2 += A^T y2), both annotated; memory-bound, so
sharing beats both single-device versions (Figure 3).
"""

from __future__ import annotations

import numpy as np

from .base import Workload
from .ordered import matvec

SOURCE = """
class Mvt {
  static void run(double[][] A, double[] x1, double[] x2,
                  double[] y1, double[] y2, int n) {
    /* acc parallel scheme(sharing) */
    for (int i = 0; i < n; i++) {
      double acc = 0.0;
      for (int j = 0; j < n; j++) {
        acc += A[i][j] * y1[j];
      }
      x1[i] = x1[i] + acc;
    }
    /* acc parallel scheme(sharing) */
    for (int i = 0; i < n; i++) {
      double acc = 0.0;
      for (int j = 0; j < n; j++) {
        acc += A[j][i] * y2[j];
      }
      x2[i] = x2[i] + acc;
    }
  }
}
"""


def make_inputs(n: int = 1, seed: int = 0, size: int = 96) -> dict:
    dim = size * max(1, n) if n > 1 else size
    rng = np.random.default_rng(seed)
    return {
        "A": rng.standard_normal((dim, dim)),
        "x1": rng.standard_normal(dim),
        "x2": rng.standard_normal(dim),
        "y1": rng.standard_normal(dim),
        "y2": rng.standard_normal(dim),
        "n": dim,
    }


def reference(bindings: dict) -> dict[str, np.ndarray]:
    A = np.asarray(bindings["A"], dtype=np.float64)
    x1 = np.asarray(bindings["x1"], dtype=np.float64).copy()
    x2 = np.asarray(bindings["x2"], dtype=np.float64).copy()
    y1 = np.asarray(bindings["y1"], dtype=np.float64)
    y2 = np.asarray(bindings["y2"], dtype=np.float64)
    x1 += matvec(A, y1)
    x2 += matvec(A.T, y2)
    return {"x1": x1, "x2": x2}


MVT = Workload(
    name="MVT",
    origin="PolyBench",
    description="Matrix-vector products (A and A^T)",
    scheme="sharing",
    method="run",
    source=SOURCE,
    paper_problem="n*2048*2048 matrix, serial 379.7 ms",
    default_params={"size": 96},
    work_scale=455.1,
    byte_scale=455.1,
    iter_scale=21.33,
    java_efficiency=0.03348,
    link_scale=7.0,
    make_inputs=make_inputs,
    reference=reference,
)
