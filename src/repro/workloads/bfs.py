"""BFS (Rodinia K) — sharing, mode A per level.

Paper input: ``n*65536`` nodes, serial 1423.7 ms.  Level-synchronized,
double-buffered relaxation: per level, a DOALL loop reads the previous
distance array through the adjacency lists and writes the new one, then a
DOALL copy loop swaps the buffers.  Irregular reads make the GPU's
accesses poorly coalesced and every level re-touches the arrays, so the
GPU-alone version (with its cyclic transfers) loses badly (Figure 3).
"""

from __future__ import annotations

import numpy as np

from .base import Workload

SOURCE = """
class Bfs {
  static void run(int[] rowStart, int[] adjList, int[] dist, int[] distNew,
                  int n, int maxDepth) {
    for (int level = 0; level < maxDepth; level++) {
      /* acc parallel scheme(sharing) */
      for (int i = 0; i < n; i++) {
        int best = dist[i];
        for (int e = rowStart[i]; e < rowStart[i + 1]; e++) {
          int nb = adjList[e];
          int cand = dist[nb] + 1;
          best = cand < best ? cand : best;
        }
        distNew[i] = best;
      }
      /* acc parallel scheme(sharing) */
      for (int i = 0; i < n; i++) {
        dist[i] = distNew[i];
      }
    }
  }
}
"""

INF = 1 << 28


def make_graph(nodes: int, degree: int, seed: int):
    """Random graph in CSR form plus BFS-source initial distances.

    Degrees vary between 1 and ~2x the mean: variable-length adjacency
    rows are what makes real BFS kernels diverge on lock-step SIMD
    hardware (each warp waits for its longest row).
    """
    rng = np.random.default_rng(seed)
    degrees = rng.integers(1, 2 * degree + 1, size=nodes, dtype=np.int32)
    row_start = np.zeros(nodes + 1, dtype=np.int32)
    np.cumsum(degrees, out=row_start[1:])
    adj = rng.integers(0, nodes, size=int(row_start[-1]), dtype=np.int32)
    # chain edges keep the graph connected and give BFS real depth
    adj[row_start[1:-1]] = np.arange(nodes - 1, dtype=np.int32)
    dist = np.full(nodes, INF, dtype=np.int32)
    dist[0] = 0
    return row_start, adj, dist


def make_inputs(
    n: int = 1, seed: int = 0, size: int = 4096, degree: int = 4,
    depth: int = 6,
) -> dict:
    nodes = size * max(1, n)
    row_start, adj, dist = make_graph(nodes, degree, seed)
    return {
        "rowStart": row_start,
        "adjList": adj,
        "dist": dist,
        "distNew": np.zeros(nodes, dtype=np.int32),
        "n": nodes,
        "maxDepth": depth,
    }


def reference(bindings: dict) -> dict[str, np.ndarray]:
    row_start = np.asarray(bindings["rowStart"], dtype=np.int64)
    adj = np.asarray(bindings["adjList"], dtype=np.int64)
    dist = np.asarray(bindings["dist"], dtype=np.int32).copy()
    n = bindings["n"]
    # one segment of edges per row that has any, in row order (CSR rows
    # are contiguous).  reduceat would return an empty segment's first
    # element, not an identity, so rows without an edge are left out.
    rows = np.flatnonzero(row_start[1 : n + 1] > row_start[:n])
    nbs = adj[row_start[0] : row_start[n]]
    offsets = row_start[rows] - row_start[0]
    for _level in range(bindings["maxDepth"]):
        cand = np.minimum.reduceat(dist[nbs], offsets) + 1
        dist[rows] = np.minimum(dist[rows], cand)
    return {"dist": dist, "distNew": dist.copy()}


BFS = Workload(
    name="BFS",
    origin="Rodinia K",
    description="Breadth-first search (level-synchronized)",
    scheme="sharing",
    method="run",
    source=SOURCE,
    paper_problem="n*65536 nodes, serial 1423.7 ms",
    default_params={"size": 4096, "degree": 4, "depth": 6},
    work_scale=16.0,
    byte_scale=16.0,
    iter_scale=16.0,
    java_efficiency=0.00334,
    link_scale=0.12,
    make_inputs=make_inputs,
    reference=reference,
)
