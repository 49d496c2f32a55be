"""CFD (Rodinia) — sharing, mode D.

Paper input: ``n*4096`` edges, serial 199.4 ms.  An iterative solver:
each sweep accumulates per-cell inviscid fluxes (reading neighbor state
through index arrays, staging partials in a small shared scratch buffer)
and then relaxes the cell state toward the fluxes.  The scratch
subscripts are not statically resolvable ("non-deterministic
dependencies"), so the flux loop is profiled; the profile finds no true
dependence (every scratch read is covered by the iteration's own write)
but false (output) dependencies on the scratch — exactly the paper's CFD
outcome — and the scheduler privatizes (mode D).  The relax loop is
deterministic DOALL (mode A).

Being iterative, CFD is where the sharing runtime's cyclic-communication
removal pays: state arrays stay resident on the device across sweeps,
while the GPU-alone build re-transfers everything every sweep.
"""

from __future__ import annotations

import numpy as np

from .base import Workload

SOURCE = """
class Cfd {
  static void run(double[] density, double[] momX, double[] momY,
                  double[] energy, int[] nbIndex, double[] flux,
                  double[] scratch, int n, int nnb, int sweeps) {
    for (int t = 0; t < sweeps; t++) {
      /* acc parallel scheme(sharing) */
      for (int i = 0; i < n; i++) {
        scratch[(i * 3) % 3] = density[i] * momX[i];
        scratch[(i * 3 + 1) % 3] = density[i] * momY[i];
        scratch[(i * 3 + 2) % 3] = energy[i] * 0.4;
        double acc = scratch[(i * 3) % 3] + scratch[(i * 3 + 1) % 3]
                     + scratch[(i * 3 + 2) % 3];
        for (int k = 0; k < nnb; k++) {
          int nb = nbIndex[i * nnb + k];
          double contrib = density[nb] * 0.5 + energy[nb] * 0.25;
          acc += contrib - momX[nb] * momY[nb] * 0.125;
        }
        flux[i] = acc;
      }
      /* acc parallel */
      for (int i = 0; i < n; i++) {
        density[i] = density[i] * 0.995 + flux[i] * 0.005;
        energy[i] = energy[i] * 0.999 + flux[i] * 0.001;
      }
    }
  }
}
"""


def make_inputs(
    n: int = 1, seed: int = 0, size: int = 4096, nnb: int = 4, sweeps: int = 4
) -> dict:
    cells = size * max(1, n)
    rng = np.random.default_rng(seed)
    return {
        "density": rng.uniform(0.5, 2.0, cells),
        "momX": rng.standard_normal(cells),
        "momY": rng.standard_normal(cells),
        "energy": rng.uniform(1.0, 3.0, cells),
        "nbIndex": rng.integers(0, cells, size=cells * nnb, dtype=np.int32),
        "flux": np.zeros(cells),
        "scratch": np.zeros(3),
        "n": cells,
        "nnb": nnb,
        "sweeps": sweeps,
    }


def reference(bindings: dict) -> dict[str, np.ndarray]:
    density = np.asarray(bindings["density"], dtype=np.float64).copy()
    momx = np.asarray(bindings["momX"], dtype=np.float64)
    momy = np.asarray(bindings["momY"], dtype=np.float64)
    energy = np.asarray(bindings["energy"], dtype=np.float64).copy()
    n = bindings["n"]
    nnb = bindings["nnb"]
    # row i holds cell i's neighbours, column k its k-th
    nb = np.asarray(bindings["nbIndex"], dtype=np.int64).reshape(n, nnb)
    flux = np.zeros(n)
    scratch = np.zeros(3)
    for _t in range(bindings["sweeps"]):
        # every cell sums its flux in the kernel's order: the three
        # scratch products, then its neighbours' contributions in k order.
        # Cell j contributes the same term to every cell that lists it.
        s0 = density * momx
        s1 = density * momy
        s2 = energy * 0.4
        term = density * 0.5 + energy * 0.25 - momx * momy * 0.125
        flux = s0 + s1 + s2
        for k in range(nnb):
            flux = flux + term[nb[:, k]]
        density = density * 0.995 + flux * 0.005
        energy = energy * 0.999 + flux * 0.001
        if n:  # the scratch cells keep the last cell's values
            scratch = np.array([s0[-1], s1[-1], s2[-1]])
    return {
        "flux": flux,
        "scratch": scratch,
        "density": density,
        "energy": energy,
    }


CFD = Workload(
    name="CFD",
    origin="Rodinia",
    description="CFD flux accumulation + relaxation (iterative)",
    scheme="sharing",
    method="run",
    source=SOURCE,
    paper_problem="n*4096 edges, serial 199.411 ms",
    default_params={"size": 4096, "nnb": 4, "sweeps": 4},
    work_scale=1.0,
    byte_scale=1.0,
    iter_scale=1.0,
    java_efficiency=0.00287,
    link_scale=0.065,
    make_inputs=make_inputs,
    reference=reference,
)
