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
from .intrawarp import classify_same_warp
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
    to its id) — ids only appear in the reported targets and sample
    pairs.
    """
    n = lanes.n_positions
    order = lanes.order
    profile = DependencyProfile(iterations=n)
    r_keys, w_keys, m = cell_keys(lanes)
    rp, _ro, rk = dedup_first(lanes.r_pos, lanes.r_op, r_keys)
    wp, _wo, wk = dedup_first(lanes.w_pos, lanes.w_op, w_keys)

    # writers sorted by (cell, position); comp packs both into one key so
    # "latest writer strictly before position p" is a single searchsorted
    ws_ord = np.lexsort((wp, wk))
    Wk, Wp = wk[ws_ord], wp[ws_ord]
    comp_w = Wk * (n + 1) + Wp

    samples_td: list[DepPair] = []
    samples_fd: list[DepPair] = []

    # --- true dependencies: an upward-exposed read hitting an earlier write
    if len(Wk) and len(rk):
        idx = np.searchsorted(comp_w, rk * (n + 1) + rp, side="left")
        cand = idx - 1
        safe = np.maximum(cand, 0)
        valid = (cand >= 0) & (Wk[safe] == rk)
        t_src = Wp[safe][valid]
    else:
        valid = np.zeros(len(rk), dtype=bool)
        t_src = rp[:0]
    t_r, t_key = rp[valid], rk[valid]
    profile.td_pairs = int(valid.sum())
    td_target_pos = np.unique(t_r)
    td_targets = {int(order[p]) for p in td_target_pos}
    profile.td_arrays = {lanes.names[a] for a in np.unique(t_key // m)}
    profile.td_warps = {int(w) for w in np.unique(t_r // warp_size)}
    dists, counts = np.unique(t_r - t_src, return_counts=True)
    profile.td_distances = {
        int(d): int(c) for d, c in zip(dists, counts)
    }
    same = (t_src // warp_size) == (t_r // warp_size)
    profile.intra_warp_td = int(same.sum())
    profile.inter_warp_td = int((~same).sum())
    if len(t_r):
        # sample order: cells by first read (in scan order), then
        # ascending reader position within a cell
        uniq_r, rank_r = first_seen_ranks(rk)
        key_rank = rank_r[np.searchsorted(uniq_r, t_key)]
        for j in np.lexsort((t_r, key_rank))[:SAMPLE_CAP]:
            samples_td.append(
                DepPair(
                    lanes.names[int(t_key[j] // m)],
                    int(order[t_src[j]]),
                    int(order[t_r[j]]),
                    "true",
                    bool(same[j]),
                )
            )

    # --- false dependencies: WAW between distinct writers, WAR read->write
    fd_rows: list[tuple[np.ndarray, ...]] = []
    waw = np.zeros(0, dtype=bool) if len(Wk) < 2 else (Wk[1:] == Wk[:-1])
    waw_a, waw_b = (
        (Wp[:-1][waw], Wp[1:][waw]) if len(Wk) >= 2 else (Wp[:0], Wp[:0])
    )
    waw_key = Wk[1:][waw] if len(Wk) >= 2 else Wk[:0]
    if len(Wk) and len(rk):
        k_idx = np.searchsorted(comp_w, rk * (n + 1) + (rp + 1), side="left")
        safe = np.minimum(k_idx, len(Wk) - 1)
        war = (k_idx < len(Wk)) & (Wk[safe] == rk)
        war_b = Wp[safe][war]
    else:
        war = np.zeros(len(rk), dtype=bool)
        war_b = wp[:0]
    war_a, war_key = rp[war], rk[war]
    profile.fd_pairs = int(len(waw_b) + len(war_b))
    fd_targets = {int(order[p]) for p in waw_b} | {
        int(order[p]) for p in war_b
    }
    profile.fd_arrays = {
        lanes.names[a]
        for a in np.unique(
            np.concatenate([waw_key // m, war_key // m])
        )
    } if profile.fd_pairs else set()
    if profile.fd_pairs and len(samples_td) < SAMPLE_CAP:
        # sample order: cells by first write (in scan order); per cell
        # the WAW chain first (ascending position), then the WAR pairs
        uniq_w, rank_w = first_seen_ranks(wk)
        keys = np.concatenate([waw_key, war_key])
        kind = np.concatenate(
            [np.zeros(len(waw_key), np.int64), np.ones(len(war_key), np.int64)]
        )
        pos = np.concatenate([waw_b, war_a])
        src = np.concatenate([waw_a, war_a])
        dst = np.concatenate([waw_b, war_b])
        key_rank = rank_w[np.searchsorted(uniq_w, keys)]
        budget = SAMPLE_CAP - len(samples_td)
        for j in np.lexsort((pos, kind, key_rank))[:budget]:
            is_waw = kind[j] == 0
            samples_fd.append(
                DepPair(
                    lanes.names[int(keys[j] // m)],
                    int(order[src[j]]),
                    int(order[dst[j]]),
                    "output" if is_waw else "anti",
                    classify_same_warp(int(src[j]), int(dst[j]), warp_size),
                )
            )

    profile.sample_pairs = samples_td + samples_fd
    denom = max(1, n - 1)
    profile.td_density = len(td_targets) / denom
    profile.fd_density = len(fd_targets - td_targets) / denom
    profile.uniform_write_arrays = _uniform_writes(lanes, wp, wk, m)
    return profile


def _uniform_writes(
    col: ColumnarLanes, wp: np.ndarray, wk: np.ndarray, m: int
) -> set[str]:
    """Arrays whose per-iteration write-cell sets are all identical.

    Takes the deduplicated writes.  An iteration that skips the array
    breaks "the last one overwrites everything", so uniformity also
    requires every iteration to write it.
    """
    total = col.n_present
    out: set[str] = set()
    for a in np.unique(wk // m):
        sel = (wk // m) == a
        p, f = wp[sel], wk[sel] % m
        uniq_p, counts = np.unique(p, return_counts=True)
        if len(uniq_p) != total or total == 0:
            continue
        c = int(counts[0])
        if not (counts == c).all():
            continue
        s = np.lexsort((f, p))
        fs = f[s].reshape(total, c)
        if (fs == fs[0]).all():
            out.add(col.names[int(a)])
    return out
