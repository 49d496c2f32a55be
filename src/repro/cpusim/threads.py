"""Chunking helpers for the CPU thread pool and the sharing scheme.

Every helper returns slices of its input, so a ``range`` stays a range
(and a list stays a list) down to the kernel.
"""

from __future__ import annotations

from typing import Sequence


def block_partition(
    indices: Sequence[int], parts: int
) -> list[Sequence[int]]:
    """Split an index sequence into ``parts`` contiguous, near-equal
    blocks."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    n = len(indices)
    out: list[Sequence[int]] = []
    base, extra = divmod(n, parts)
    pos = 0
    for k in range(parts):
        size = base + (1 if k < extra else 0)
        out.append(indices[pos : pos + size])
        pos += size
    return out


def uniform_chunks(
    indices: Sequence[int], chunk_size: int
) -> list[Sequence[int]]:
    """Split into uniform chunks of ``chunk_size`` (last may be short)."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return [
        indices[k : k + chunk_size]
        for k in range(0, len(indices), chunk_size)
    ]


def descending(indices: Sequence[int]) -> Sequence[int]:
    """Iteration order for the CPU side of the sharing scheme (the right
    part of the data set is "executed on CPU in a descending order")."""
    return indices[::-1]
