"""Gauss-Seidel (PolyBench) — sharing, mode C.

Paper input: ``n*512`` matrix, serial 1139.4 ms.  The in-place 5-point
sweep carries a true dependence of distance 1 between consecutive rows
(and across cells within a row); the profiler measures TD density ~1, so
the scheduler "distributes all the workloads to CPU (mode C)" (Figure 4).
"""

from __future__ import annotations

import numpy as np

from .base import Workload

SOURCE = """
class GaussSeidel {
  static void run(double[][] A, int n, int sweeps) {
    for (int t = 0; t < sweeps; t++) {
      /* acc parallel scheme(sharing) */
      for (int i = 1; i < n - 1; i++) {
        for (int j = 1; j < n - 1; j++) {
          A[i][j] = 0.2 * (A[i][j] + A[i - 1][j] + A[i + 1][j]
                           + A[i][j - 1] + A[i][j + 1]);
        }
      }
    }
  }
}
"""


def make_inputs(n: int = 1, seed: int = 0, size: int = 64, sweeps: int = 2) -> dict:
    dim = size * max(1, n) if n > 1 else size
    rng = np.random.default_rng(seed)
    return {
        "A": rng.standard_normal((dim, dim)),
        "n": dim,
        "sweeps": sweeps,
    }


def reference(bindings: dict) -> dict[str, np.ndarray]:
    A = np.asarray(bindings["A"], dtype=np.float64).copy()
    n = bindings["n"]
    # The row-major sweep, one anti-diagonal i + j = d at a time: a cell's
    # up and left neighbours lie on diagonal d - 1 and are already new,
    # its down and right ones on d + 1 and still old, and no two cells of
    # one diagonal are neighbours.
    flat = A.reshape(-1)
    diagonals = []
    for d in range(2, 2 * n - 3):
        i = np.arange(max(1, d - n + 2), min(n - 2, d - 1) + 1)
        diagonals.append(i * n + (d - i))
    for _t in range(bindings["sweeps"]):
        for c in diagonals:
            flat[c] = 0.2 * (
                flat[c] + flat[c - n] + flat[c + n] + flat[c - 1] + flat[c + 1]
            )
    return {"A": A}


GAUSS_SEIDEL = Workload(
    name="Guass-Seidel",  # paper's spelling, kept for table fidelity
    origin="PolyBench",
    description="Gauss-Seidel iterative 5-point sweep",
    scheme="sharing",
    method="run",
    source=SOURCE,
    paper_problem="n*512 matrix, serial 1139.37 ms",
    default_params={"size": 64, "sweeps": 2},
    work_scale=64.0,
    byte_scale=64.0,
    iter_scale=8.0,
    java_efficiency=0.00163,
    link_scale=2.0,
    make_inputs=make_inputs,
    reference=reference,
)
