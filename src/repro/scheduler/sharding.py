"""Placement helpers for the multi-GPU device pool.

The sharing scheme's GPU side is one contiguous block of the iteration
space; :func:`partition_weighted` shards it across the alive devices in
proportion to their relative throughput (``C_k * F_k``, the same
convention as the paper's CPU/GPU boundary).  The pipeline that runs
the shards lives in :class:`~repro.scheduler.sharing.TaskSharingScheduler`;
the stealing scheme reuses :func:`seeded_pick` for its placement ties.

Sharding never changes functional results: DOALL / profiled-clean loops
(the only shardable modes, see :func:`repro.scheduler.modes.shardable`)
execute each index exactly once no matter which device runs it, so the
multi-device output is bit-identical to the single-device output.

Placement ties (equal-cost devices) break deterministically through a
seed derived from the installed fault schedule, so a chaos failure
replays bit-for-bit under the same ``--fault-seed``.
"""

from __future__ import annotations

import hashlib
from typing import Sequence


def seeded_pick(seed: int, key: object, n: int) -> int:
    """Deterministic index in ``[0, n)`` for tie-breaking.

    A pure function of ``(seed, key)`` through a digest (``hash()`` is
    randomized per process), so equal-cost placement decisions replay
    identically under the same scheduler seed.
    """
    if n <= 1:
        return 0
    text = repr((seed, key)).encode()
    digest = hashlib.sha256(text).digest()
    return int.from_bytes(digest[:8], "big") % n


def partition_weighted(
    items: Sequence[int], weights: Sequence[float]
) -> list[Sequence[int]]:
    """Split ``items`` into ``len(weights)`` contiguous shards by weight.

    Shard boundaries are ``round(n * cum_weight / total)``; the rounded
    cumulative sums are monotone, so the shards are an *exact* partition
    of the input — no index lost, none duplicated — which the property
    suite locks down.  The shards are slices of ``items``.  Zero total
    weight degenerates to everything in shard 0.
    """
    if not weights:
        raise ValueError("partition_weighted needs at least one weight")
    if any(w < 0 for w in weights):
        raise ValueError(f"negative shard weight in {weights!r}")
    n = len(items)
    total = sum(weights)
    if total <= 0:
        return [items[:]] + [items[:0] for _ in weights[1:]]
    shards: list[Sequence[int]] = []
    cum = 0.0
    lo = 0
    for w in weights:
        cum += w
        hi = int(round(n * cum / total))
        shards.append(items[lo:hi])
        lo = hi
    return shards
