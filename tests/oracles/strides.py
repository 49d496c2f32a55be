"""Scalar oracle of :func:`repro.profiler.strides.compression_ratio`,
with the greedy stride compressor it is held to."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class StridePattern:
    """Addresses ``base, base+stride, ..., base+(count-1)*stride``.

    ``stride`` may be 0 (a repeated address) only with ``count == 1``
    after normalization; zero-stride runs collapse to a single entry.
    """

    base: int
    stride: int
    count: int

    @property
    def last(self) -> int:
        return self.base + (self.count - 1) * self.stride

    @property
    def lo(self) -> int:
        return min(self.base, self.last)

    @property
    def hi(self) -> int:
        return max(self.base, self.last)

    def addresses(self) -> list[int]:
        return [self.base + k * self.stride for k in range(self.count)]


def compress_addresses(addrs: Sequence[int]) -> list[StridePattern]:
    """Greedy run-length stride compression of an address sequence.

    Consecutive addresses with a common difference fold into one
    pattern; repeated addresses collapse (a profile is a *set* of
    touched cells per iteration, duplicates carry no extra dependence
    information).
    """
    out: list[StridePattern] = []
    i = 0
    n = len(addrs)
    while i < n:
        base = addrs[i]
        if i + 1 >= n:
            out.append(StridePattern(base, 0, 1))
            break
        stride = addrs[i + 1] - base
        if stride == 0:
            # skip duplicates of base
            j = i + 1
            while j < n and addrs[j] == base:
                j += 1
            out.append(StridePattern(base, 0, 1))
            i = j
            continue
        count = 2
        j = i + 2
        while j < n and addrs[j] - addrs[j - 1] == stride:
            count += 1
            j += 1
        out.append(StridePattern(base, stride, count))
        i = j
    return _merge_singletons(out)


def _merge_singletons(patterns: list[StridePattern]) -> list[StridePattern]:
    """Collapse exact-duplicate singleton patterns."""
    seen: set[tuple[int, int, int]] = set()
    out = []
    for p in patterns:
        key = (p.base, p.stride, p.count)
        if key in seen:
            continue
        seen.add(key)
        out.append(p)
    return out


def compress_lane(
    read_addrs: Sequence[int], write_addrs: Sequence[int]
) -> int:
    """Trace entries of one iteration on one array: the patterns of its
    read stream plus those of its write stream."""
    return len(compress_addresses(read_addrs)) + len(
        compress_addresses(write_addrs)
    )


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
            compressed += compress_lane(reads, writes)
    if compressed == 0:
        return 1.0
    return raw / compressed
