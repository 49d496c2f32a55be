"""BICG (PolyBench) — stealing.

Paper input: ``n*2048*2048`` matrix, serial 19.2 ms.  "The BICG method
contains two independent and deterministic DOALL loops with similar
workload.  We rewrite the BICG method and divide each loop into four
subloops evenly" — eight annotated sub-loops total; all initially land in
the GPU queue, and the CPU steals until (in the paper) it has executed
62.5 % of the sub-loops.
"""

from __future__ import annotations

import numpy as np

from .base import Workload
from .ordered import matvec

SOURCE = """
class Bicg {
  static void run(double[][] A, double[] p, double[] r,
                  double[] q, double[] s, int n) {
    /* acc parallel scheme(stealing) */
    for (int i = 0; i < n / 4; i++) {
      double acc = 0.0;
      for (int j = 0; j < n; j++) { acc += A[i][j] * p[j]; }
      q[i] = acc;
    }
    /* acc parallel */
    for (int i = n / 4; i < n / 2; i++) {
      double acc = 0.0;
      for (int j = 0; j < n; j++) { acc += A[i][j] * p[j]; }
      q[i] = acc;
    }
    /* acc parallel */
    for (int i = n / 2; i < 3 * n / 4; i++) {
      double acc = 0.0;
      for (int j = 0; j < n; j++) { acc += A[i][j] * p[j]; }
      q[i] = acc;
    }
    /* acc parallel */
    for (int i = 3 * n / 4; i < n; i++) {
      double acc = 0.0;
      for (int j = 0; j < n; j++) { acc += A[i][j] * p[j]; }
      q[i] = acc;
    }
    /* acc parallel */
    for (int i = 0; i < n / 4; i++) {
      double acc = 0.0;
      for (int j = 0; j < n; j++) { acc += A[j][i] * r[j]; }
      s[i] = acc;
    }
    /* acc parallel */
    for (int i = n / 4; i < n / 2; i++) {
      double acc = 0.0;
      for (int j = 0; j < n; j++) { acc += A[j][i] * r[j]; }
      s[i] = acc;
    }
    /* acc parallel */
    for (int i = n / 2; i < 3 * n / 4; i++) {
      double acc = 0.0;
      for (int j = 0; j < n; j++) { acc += A[j][i] * r[j]; }
      s[i] = acc;
    }
    /* acc parallel */
    for (int i = 3 * n / 4; i < n; i++) {
      double acc = 0.0;
      for (int j = 0; j < n; j++) { acc += A[j][i] * r[j]; }
      s[i] = acc;
    }
  }
}
"""


def make_inputs(n: int = 1, seed: int = 0, size: int = 96) -> dict:
    dim = size * max(1, n) if n > 1 else size
    rng = np.random.default_rng(seed)
    return {
        "A": rng.standard_normal((dim, dim)),
        "p": rng.standard_normal(dim),
        "r": rng.standard_normal(dim),
        "q": np.zeros(dim),
        "s": np.zeros(dim),
        "n": dim,
    }


def reference(bindings: dict) -> dict[str, np.ndarray]:
    A = np.asarray(bindings["A"], dtype=np.float64)
    p = np.asarray(bindings["p"], dtype=np.float64)
    r = np.asarray(bindings["r"], dtype=np.float64)
    q = matvec(A, p)
    s = matvec(A.T, r)
    return {"q": q, "s": s}


BICG = Workload(
    name="BICG",
    origin="PolyBench",
    description="Bi-conjugate gradient kernel (q = A p, s = A^T r)",
    scheme="stealing",
    method="run",
    source=SOURCE,
    paper_problem="n*2048*2048 matrix, serial 19.2 ms",
    default_params={"size": 96},
    work_scale=455.1,
    byte_scale=455.1,
    iter_scale=21.33,
    java_efficiency=0.66041,
    link_scale=20.0,
    make_inputs=make_inputs,
    reference=reference,
)
