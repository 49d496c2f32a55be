"""Warp organization: a launch's lane positions in warps of lock-step
lanes, and the SIMD divergence they cost."""

from __future__ import annotations

from typing import Iterator, Sequence


def iter_warp_spans(
    n: int, warp_size: int = 32
) -> Iterator[tuple[int, int, int]]:
    """Yield ``(warp_id, start, stop)`` lane-position spans for n lanes."""
    for wid, start in enumerate(range(0, n, warp_size)):
        yield wid, start, min(start + warp_size, n)


def divergence_factor(
    lane_instructions: Sequence[int], warp_size: int = 32
) -> float:
    """SIMD divergence penalty of a launch.

    In lock-step execution a warp is busy for as long as its slowest
    lane, so the issue slots charged are ``sum over warps of
    (max lane count) * (lanes in warp)``; the factor is that total over
    the useful work.  1.0 = perfectly uniform lanes; a warp whose lanes
    execute wildly different instruction counts pays proportionally.
    """
    total = sum(lane_instructions)
    if total <= 0:
        return 1.0
    charged = 0
    for _wid, start, stop in iter_warp_spans(len(lane_instructions), warp_size):
        lanes = lane_instructions[start:stop]
        charged += max(lanes) * len(lanes)
    return charged / total
