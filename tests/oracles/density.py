"""Scalar oracle of :func:`repro.profiler.density.analyze_lanes`.

Walks per-lane ``LaneSpecState`` records with dicts and bisection — the
original implementation the columnar analysis must match field for
field.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Mapping, Sequence

from repro.ir.interpreter import LaneSpecState
from repro.profiler.report import DependencyProfile


def analyze_lanes_scalar(
    lanes: Mapping[int, LaneSpecState],
    iteration_order: Sequence[int],
    warp_size: int = 32,
) -> DependencyProfile:
    """Reference (per-record) implementation of :func:`analyze_lanes`."""
    order_pos = {it: pos for pos, it in enumerate(iteration_order)}
    n = len(iteration_order)

    # cell -> sorted list of writer iterations; cell -> reader iterations
    writers: dict[tuple[str, int], list[int]] = defaultdict(list)
    readers: dict[tuple[str, int], list[int]] = defaultdict(list)
    for it in iteration_order:
        state = lanes.get(it)
        if state is None:
            continue
        seen_w: set[tuple[str, int]] = set()
        for rec in state.writes:
            key = (rec.array, rec.flat)
            if key not in seen_w:
                seen_w.add(key)
                writers[key].append(it)
        seen_r: set[tuple[str, int]] = set()
        for rec in state.reads:
            key = (rec.array, rec.flat)
            if key not in seen_r:
                seen_r.add(key)
                readers[key].append(it)

    for lst in writers.values():
        lst.sort(key=order_pos.__getitem__)
    for lst in readers.values():
        lst.sort(key=order_pos.__getitem__)

    profile = DependencyProfile(iterations=n)
    td_targets: set[int] = set()
    fd_targets: set[int] = set()

    def warp_of_iter(it: int) -> int:
        return order_pos[it] // warp_size

    # --- true dependencies: an upward-exposed read hitting an earlier write
    for key, reads in readers.items():
        ws = writers.get(key)
        if not ws:
            continue
        w_positions = [order_pos[w] for w in ws]
        for r in reads:
            rp = order_pos[r]
            k = bisect_left(w_positions, rp)
            if k == 0:
                continue  # no earlier writer
            src = ws[k - 1]
            if src == r:
                continue
            profile.td_pairs += 1
            td_targets.add(r)
            profile.td_arrays.add(key[0])
            profile.td_warps.add(warp_of_iter(r))
            dist = rp - order_pos[src]
            profile.td_distances[dist] = profile.td_distances.get(dist, 0) + 1
            if warp_of_iter(src) == warp_of_iter(r):  # same warp
                profile.intra_warp_td += 1
            else:
                profile.inter_warp_td += 1

    # --- false dependencies: WAW between distinct writers, WAR read->write
    for key, ws in writers.items():
        for b in ws[1:]:
            profile.fd_pairs += 1
            fd_targets.add(b)
            profile.fd_arrays.add(key[0])
        reads = readers.get(key)
        if not reads:
            continue
        w_positions = [order_pos[w] for w in ws]
        for r in reads:
            rp = order_pos[r]
            k = bisect_left(w_positions, rp + 1)
            if k >= len(ws):
                continue  # no later writer
            later_writer = ws[k]
            if later_writer == r:
                continue
            profile.fd_pairs += 1
            fd_targets.add(later_writer)
            profile.fd_arrays.add(key[0])

    denom = max(1, n - 1)
    profile.td_density = len(td_targets) / denom
    profile.fd_density = len(fd_targets - td_targets) / denom
    profile.uniform_write_arrays = _uniform_write_arrays(
        lanes, iteration_order
    )
    return profile


def _uniform_write_arrays(
    lanes: Mapping[int, LaneSpecState],
    iteration_order: Sequence[int],
) -> set[str]:
    """Arrays whose per-iteration write-cell sets are all identical."""
    reference: dict[str, frozenset[int]] = {}
    writers_count: dict[str, int] = defaultdict(int)
    non_uniform: set[str] = set()
    total = 0
    for it in iteration_order:
        state = lanes.get(it)
        if state is None:
            continue
        total += 1
        per_array: dict[str, set[int]] = defaultdict(set)
        for rec in state.writes:
            per_array[rec.array].add(rec.flat)
        for name, cells in per_array.items():
            writers_count[name] += 1
            frozen = frozenset(cells)
            if name not in reference:
                reference[name] = frozen
            elif reference[name] != frozen:
                non_uniform.add(name)
    # an iteration that skips the array breaks "the last one overwrites
    # everything", so uniformity also requires every iteration to write it
    return {
        name
        for name in reference
        if name not in non_uniform and writers_count[name] == total
    }
