"""Dependency-density analysis over speculative access logs.

Input: the per-lane SE logs of a profiling launch (upward-exposed global
reads + buffered writes, each with the lane-local op timestamp).  Output:
true/false dependence counts, the quantitative density metrics, and the
per-warp TD map the mode-B recovery logic consults.
"""

from __future__ import annotations

import numpy as np

from ..ir.columnar import ColumnarLanes, cell_keys, dedup_first
from .report import DependencyProfile


def analyze_lanes(
    lanes: ColumnarLanes, warp_size: int = 32
) -> DependencyProfile:
    """Compute the dependency profile from a launch's SE log.

    Warps are formed over lane *positions* in the launch order
    (``lanes.order``), mirroring how the launch partitioned them.

    The per-cell reader/writer scans are sort/searchsorted passes.
    Iteration ids never drive the math: dependencies relate lane
    *positions* (ids are unique within a launch, so a position bijects
    to its id, and target sets are counted over positions).
    """
    n = lanes.n_positions
    profile = DependencyProfile(iterations=n)
    r_keys, w_keys, m = cell_keys(lanes)
    rp, _ro, rk = dedup_first(lanes.r_pos, lanes.r_op, r_keys)
    wp, _wo, wk = dedup_first(lanes.w_pos, lanes.w_op, w_keys)

    # writers sorted by (cell, position): comp packs both into one key,
    # unique once deduplicated, so a read's nearest writers of its cell
    # are one searchsorted away
    comp_w = np.sort(wk * (n + 1) + wp)
    Wk, Wp = np.divmod(comp_w, n + 1)
    head = np.ones(len(Wk), dtype=bool)  # a cell's first writer
    head[1:] = Wk[1:] != Wk[:-1]

    # --- true dependencies: an upward-exposed read hitting an earlier
    # write; false: WAR from a read to the next later writer
    if len(Wk) and len(rk):
        probe = rk * (n + 1) + rp
        at = np.searchsorted(comp_w, probe)
        end = len(Wk) - 1
        before = np.maximum(at - 1, 0)
        valid = (at > 0) & (Wk[before] == rk)
        t_src = Wp[before][valid]
        at += comp_w[np.minimum(at, end)] == probe  # past the lane's own
        after = np.minimum(at, end)
        war = (at <= end) & (Wk[after] == rk)
        war_b = Wp[after][war]
    else:
        valid = war = np.zeros(len(rk), dtype=bool)
        t_src = war_b = rp[:0]
    t_r = rp[valid]
    profile.td_pairs = len(t_r)
    td_targets = np.zeros(n, dtype=bool)
    td_targets[t_r] = True
    profile.td_arrays = _arrays(lanes, rk[valid], m)
    profile.td_warps = set(
        np.flatnonzero(np.bincount(t_r // warp_size)).tolist()
    )
    dists, counts = np.unique(t_r - t_src, return_counts=True)
    profile.td_distances = dict(zip(dists.tolist(), counts.tolist()))
    same = (t_src // warp_size) == (t_r // warp_size)
    profile.intra_warp_td = int(same.sum())
    profile.inter_warp_td = len(same) - profile.intra_warp_td

    # --- false dependencies: WAW between a cell's successive writers
    waw = ~head[1:]
    waw_b = Wp[1:][waw]
    profile.fd_pairs = len(waw_b) + len(war_b)
    profile.fd_arrays = _arrays(
        lanes, np.concatenate([Wk[1:][waw], rk[war]]), m
    )
    fd_targets = np.zeros(n, dtype=bool)
    fd_targets[waw_b] = fd_targets[war_b] = True
    fd_targets[t_r] = False

    denom = max(1, n - 1)
    profile.td_density = np.count_nonzero(td_targets) / denom
    profile.fd_density = np.count_nonzero(fd_targets) / denom
    profile.uniform_write_arrays = _uniform_writes(lanes, Wk, head, m)
    return profile


def _arrays(lanes: ColumnarLanes, keys: np.ndarray, m: int) -> set[str]:
    """Names of the arrays whose cells ``keys`` holds."""
    return {
        lanes.names[a]
        for a in np.flatnonzero(np.bincount(keys // m)).tolist()
    }


def _uniform_writes(
    col: ColumnarLanes, Wk: np.ndarray, head: np.ndarray, m: int
) -> set[str]:
    """Arrays whose per-iteration write-cell sets are all identical.

    Takes the deduplicated write keys sorted, with each cell's first
    row flagged.  An iteration that skips the array breaks "the last one
    overwrites everything", so uniformity also requires every iteration
    to write it: it holds exactly when every cell of the array has one
    writer per lane that ran.
    """
    starts = np.flatnonzero(head)
    writers = np.diff(np.r_[starts, len(Wk)])
    arrays = Wk[starts] // m
    uniform = np.zeros(len(col.names), dtype=bool)
    uniform[arrays] = True
    uniform[arrays[writers != col.n_present]] = False
    return {col.names[a] for a in np.flatnonzero(uniform).tolist()}
