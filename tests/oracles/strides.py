"""Scalar oracle of :func:`repro.profiler.strides.compression_ratio`."""

from __future__ import annotations

from repro.profiler.strides import compress_lane


def compression_ratio_scalar(lanes, sample: int = 512) -> float:
    """Reference (per-record) implementation (the cross-check oracle)."""
    raw = 0
    compressed = 0
    for k, (_it, state) in enumerate(lanes.items()):
        if k >= sample:
            break
        per_array: dict[str, tuple[list[int], list[int]]] = {}
        for rec in state.reads:
            per_array.setdefault(rec.array, ([], []))[0].append(rec.flat)
        for rec in state.writes:
            per_array.setdefault(rec.array, ([], []))[1].append(rec.flat)
        for reads, writes in per_array.values():
            raw += len(reads) + len(writes)
            compressed += compress_lane(reads, writes).entries
    if compressed == 0:
        return 1.0
    return raw / compressed
