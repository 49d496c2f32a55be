"""Dependency-density analysis over speculative access logs.

Input: the per-lane SE logs of a profiling launch (upward-exposed global
reads + buffered writes, each with the lane-local op timestamp).  Output:
true/false dependence pairs, the quantitative density metrics, and the
per-warp TD map the mode-B recovery logic consults.
"""

from __future__ import annotations

import numpy as np

from ..ir.columnar import (
    ColumnarLanes,
    cell_keys,
    dedup_first,
    first_seen_ranks,
)
from .report import DepPair, DependencyProfile

#: Cap on retained diagnostic pairs (analysis itself sees everything).
SAMPLE_CAP = 4096


def analyze_lanes(
    lanes: ColumnarLanes, warp_size: int = 32
) -> DependencyProfile:
    """Compute the dependency profile from a launch's SE log.

    Warps are formed over lane *positions* in the launch order
    (``lanes.order``), mirroring how the launch partitioned them.

    The per-cell reader/writer scans are sort/unique/searchsorted passes.
    Iteration ids never drive the math — dependencies relate lane
    *positions* (ids are unique within a launch, so a position bijects
    to its id, and target sets are counted over positions) — ids only
    appear in the sample pairs.
    """
    n = lanes.n_positions
    profile = DependencyProfile(iterations=n)
    r_keys, w_keys, m = cell_keys(lanes)
    rp, _ro, rk = dedup_first(lanes.r_pos, lanes.r_op, r_keys)
    wp, _wo, wk = dedup_first(lanes.w_pos, lanes.w_op, w_keys)

    # writers sorted by (cell, position): comp packs both into one key,
    # unique once deduplicated, so a read's nearest writers of its cell
    # are one searchsorted away
    comp_w = wk * (n + 1) + wp
    ws_ord = np.argsort(comp_w)
    comp_w, Wk, Wp = comp_w[ws_ord], wk[ws_ord], wp[ws_ord]
    head = np.ones(len(Wk), dtype=bool)  # a cell's first writer
    head[1:] = Wk[1:] != Wk[:-1]
    # the scan row of each writer's cell's first write (the deduplicated
    # rows keep scan order, and a cell's writers ascend by position)
    first_w = ws_ord[head][np.cumsum(head) - 1]

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
        war_b, war_first = Wp[after][war], first_w[after][war]
    else:
        valid = war = np.zeros(len(rk), dtype=bool)
        t_src = war_b = war_first = rp[:0]
    t_r, t_key = rp[valid], rk[valid]
    profile.td_pairs = len(t_r)
    td_targets = np.zeros(n, dtype=bool)
    td_targets[t_r] = True
    profile.td_arrays = _arrays(lanes, t_key, m)
    profile.td_warps = set(
        np.flatnonzero(np.bincount(t_r // warp_size)).tolist()
    )
    dists, counts = np.unique(t_r - t_src, return_counts=True)
    profile.td_distances = dict(zip(dists.tolist(), counts.tolist()))
    same = (t_src // warp_size) == (t_r // warp_size)
    profile.intra_warp_td = int(same.sum())
    profile.inter_warp_td = len(same) - profile.intra_warp_td
    samples: list[DepPair] = []
    if len(t_r):
        # sample order: cells by first read (in scan order), then
        # ascending reader position within a cell
        uniq_r, rank_r = first_seen_ranks(rk)
        key_rank = rank_r[np.searchsorted(uniq_r, t_key)]
        j = np.lexsort((t_r, key_rank))[:SAMPLE_CAP]
        samples = _pairs(
            lanes, t_key[j] // m, t_src[j], t_r[j], ["true"] * len(j),
            same[j],
        )

    # --- false dependencies: WAW between a cell's successive writers
    waw = ~head[1:]
    waw_a, waw_b, waw_key = Wp[:-1][waw], Wp[1:][waw], Wk[1:][waw]
    war_a, war_key = rp[war], rk[war]
    profile.fd_pairs = len(waw_b) + len(war_b)
    keys = np.concatenate([waw_key, war_key])
    profile.fd_arrays = _arrays(lanes, keys, m)
    fd_targets = np.zeros(n, dtype=bool)
    fd_targets[waw_b] = fd_targets[war_b] = True
    fd_targets[t_r] = False
    if profile.fd_pairs and len(samples) < SAMPLE_CAP:
        # sample order: cells by first write (in scan order); per cell
        # the WAW chain first (ascending position), then the WAR pairs
        kind = np.repeat([0, 1], [len(waw_key), len(war_key)])
        pos = np.concatenate([waw_b, war_a])
        src = np.concatenate([waw_a, war_a])
        dst = np.concatenate([waw_b, war_b])
        first = np.concatenate([first_w[1:][waw], war_first])
        j = np.lexsort((pos, kind, first))[: SAMPLE_CAP - len(samples)]
        samples += _pairs(
            lanes, keys[j] // m, src[j], dst[j],
            [("output", "anti")[k] for k in kind[j].tolist()],
            (src[j] // warp_size) == (dst[j] // warp_size),
        )

    profile.sample_pairs = samples
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


def _pairs(lanes, arrays, src, dst, kinds, same) -> list[DepPair]:
    """Sample pairs from position columns, ids looked up in one pass."""
    names = lanes.names
    return list(map(
        DepPair, [names[a] for a in arrays.tolist()],
        lanes.order[src].tolist(), lanes.order[dst].tolist(), kinds,
        same.tolist(),
    ))


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
