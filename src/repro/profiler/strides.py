"""Stride-compressed access traces (after Prospector / SD3).

The paper's related work singles out SD3 [Kim et al., MICRO-43]: memory
profiles are kept tractable by storing *stride patterns* instead of raw
address lists.  The profiler reports the compression ratio that
representation achieves on its traces: a lane's accesses to an array
compress to ``(base, stride, count)`` runs.

For the regular affine kernels of the suite the ratio is enormous (one
pattern per access site); irregular kernels (BFS, CFD) degrade
gracefully toward one pattern per access — exactly the trade-off the
SD3 paper describes for strided vs. non-strided behavior.
"""

from __future__ import annotations

import numpy as np

from ..ir.columnar import ColumnarLanes


def compression_ratio(lanes: ColumnarLanes, sample: int = 512) -> float:
    """Raw trace entries / compressed entries over (a sample of) lanes.

    Compresses each (lane, array) read stream and write stream of the
    first ``sample`` lanes that ran, and counts each stream's distinct
    patterns.  Lanes that did not run log nothing, so the sampled rows
    are exactly those before the last sampled position.  1.0 = nothing
    gained (fully irregular); large = strided accesses.
    """
    sampled = np.nonzero(lanes.present)[0][:sample]
    if len(sampled) == 0:
        return 1.0
    end = sampled[-1] + 1
    width = len(lanes.names)
    raw = 0
    compressed = 0
    for pos, arr, flat in (
        (lanes.r_pos, lanes.r_arr, lanes.r_flat),
        (lanes.w_pos, lanes.w_arr, lanes.w_flat),
    ):
        rows = int(np.searchsorted(pos, end))
        # stable sort by (lane, array) keeps each stream in log order
        key = pos[:rows] * width + arr[:rows]
        s = np.argsort(key, kind="stable")
        raw += rows
        compressed += pattern_count(key[s], flat[:rows][s])
    if compressed == 0:
        return 1.0
    return raw / compressed


def pattern_count(stream: np.ndarray, addrs: np.ndarray) -> int:
    """Distinct stride patterns per stream, summed over the streams.

    ``addrs`` holds each stream's addresses in order, the streams one
    after another (``stream`` labels the rows).  A stream compresses
    greedily: a pattern starts at an address, takes the next one's
    difference as its stride, and extends while the difference holds
    (a zero stride swallows the repeats of its base as one address);
    the next pattern starts after it.  In a run of equal differences a
    pattern entered at the run's first address takes the whole run, and
    one entered a step later the rest of it, so every run of two or more
    differences, and a stream's first run, yields a pattern; a lone
    difference after a pattern is skipped, and one after a skip yields a
    pattern.  A stream whose last difference is skipped ends in a
    single-address pattern, as does a stream of one address.  Equal
    ``(base, stride, count)`` patterns of one stream count once.
    """
    if len(addrs) == 0:
        return 0
    step = addrs[1:] - addrs[:-1]
    within = stream[1:] == stream[:-1]  # the step stays in its stream
    # runs of equal steps within a stream, and each run's first step
    head = within.copy()
    head[1:] &= ~within[:-1] | (step[1:] != step[:-1])
    runs = np.flatnonzero(head)
    length = np.bincount((np.cumsum(head) - 1)[within], minlength=len(runs))
    first = np.ones(len(runs), dtype=bool)  # the stream's first run
    first[1:] = ~within[runs[1:] - 1]
    whole = first | (length >= 2)  # always yields a pattern
    k = np.arange(len(runs))
    since = k - np.maximum.accumulate(np.where(whole, k, 0))
    yields = whole | (since % 2 == 0)
    # a run after a pattern is entered a step late
    late = np.zeros(len(runs), dtype=np.int64)
    late[1:] = yields[:-1] & ~first[1:]
    y = np.flatnonzero(yields)
    stride = step[runs[y]]
    count = np.where(stride == 0, 1, length[y] - late[y] + 1)
    # single-address patterns: after a skipped last step, or alone
    last = np.ones(len(runs), dtype=bool)
    last[:-1] = first[1:]
    alone = np.ones(len(addrs), dtype=bool)
    alone[1:] &= ~within
    alone[:-1] &= ~within
    single = np.concatenate(
        [runs[np.flatnonzero(last & ~yields)] + 1, np.flatnonzero(alone)]
    )
    cols = [
        np.concatenate([stream[runs[y]], stream[single]]),
        np.concatenate([addrs[runs[y] + late[y]], addrs[single]]),
        np.concatenate([stride, np.zeros(len(single), dtype=stride.dtype)]),
        np.concatenate([count, np.ones(len(single), dtype=count.dtype)]),
    ]
    s = np.lexsort(cols[::-1])
    new = np.zeros(len(s) - 1, dtype=bool)
    for c in cols:
        c = c[s]
        new |= c[1:] != c[:-1]
    return 1 + int(np.count_nonzero(new))
