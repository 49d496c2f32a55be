"""Scalar oracle of :func:`repro.profiler.coalesce.estimate_coalescing`."""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, Sequence

from repro.ir.interpreter import LaneSpecState


def estimate_coalescing_scalar(
    lanes: Mapping[int, LaneSpecState],
    iteration_order: Sequence[int],
    warp_size: int = 32,
    floor: float = 0.1,
) -> float:
    """Reference (per-record) implementation (the cross-check oracle)."""
    # (warp, op, array) -> {lane_position: flat}
    slots: dict[tuple[int, int, str], dict[int, int]] = defaultdict(dict)
    for pos, it in enumerate(iteration_order):
        state = lanes.get(it)
        if state is None:
            continue
        warp = pos // warp_size
        for rec in state.reads:
            slots[(warp, rec.op, rec.array)][pos] = rec.flat
        for rec in state.writes:
            slots[(warp, rec.op, rec.array)][pos] = rec.flat

    good = 0
    total = 0
    for mapping in slots.values():
        if len(mapping) < 2:
            continue
        positions = sorted(mapping)
        for a, b in zip(positions, positions[1:]):
            if b != a + 1:
                continue  # only adjacent lanes are coalescing-relevant
            total += 1
            delta = abs(mapping[b] - mapping[a])
            if delta <= 1:
                good += 1
    if total == 0:
        return 1.0
    return max(floor, good / total)
