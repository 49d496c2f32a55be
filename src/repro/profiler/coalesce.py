"""Dynamic memory-coalescing estimation from profiled address streams.

For each memory-op slot (the lane-local op timestamp, which under
lock-step SIMD is the warp-wide issue slot), adjacent lanes of a warp
access addresses whose deltas determine how many memory transactions the
warp needs: unit stride (or broadcast) coalesces into one transaction;
scattered accesses serialize.  The estimate scales the GPU's effective
memory bandwidth in the cost model.
"""

from __future__ import annotations

import numpy as np

from ..ir.columnar import ColumnarLanes


def estimate_coalescing(
    lanes: ColumnarLanes, warp_size: int = 32, floor: float = 0.1
) -> float:
    """Fraction in (0, 1]: 1.0 = perfectly coalesced accesses.

    Computed as the fraction of adjacent-lane address pairs (same warp,
    same op slot, same array) whose flat-address delta is 0 (broadcast)
    or ±1 (unit stride).  Kernels with no comparable pairs default to 1.0.
    A lane's op slots are unique over its reads and writes, so every
    access's array and address go into a table at the packed slot key
    ``pos * span + op``, and each access looks up the same slot one lane
    on, with no sort.  A table larger than twice the log (lanes whose op
    stamps spread far apart, or a key that could overflow) gives way to
    one sort by (op, array, position).
    """
    logs = ((lanes.r_pos, lanes.r_op, lanes.r_arr, lanes.r_flat),
            (lanes.w_pos, lanes.w_op, lanes.w_arr, lanes.w_flat))
    rows = lanes.logged_accesses()
    if rows < 2:
        return 1.0
    # a warp's last lane has no neighbour in its warp
    last = np.zeros(lanes.n_positions, dtype=bool)
    last[warp_size - 1::warp_size] = True
    span = max(int(op.max()) + 1 for _p, op, _a, _f in logs if len(op))
    size = (lanes.n_positions + 1) * span
    total = good = 0
    if size <= 2 * rows:
        slot_arr = np.full(size, -1)
        slot_flat = np.zeros(size, dtype=np.int64)
        keys = []
        for pos, op, arr, flat in logs:
            key = pos * span + op
            slot_arr[key], slot_flat[key] = arr, flat
            keys.append(key + span)
        for key, (pos, _op, arr, flat) in zip(keys, logs):
            pair = (slot_arr[key] == arr) & ~last[pos]
            total += np.count_nonzero(pair)
            good += np.count_nonzero(
                pair & (np.abs(slot_flat[key] - flat) <= 1)
            )
    else:
        pos, op, arr, flat = (np.concatenate(c) for c in zip(*logs))
        s = np.lexsort((pos, arr, op))
        pos, op, arr, flat = pos[s], op[s], arr[s], flat[s]
        pair = (
            (op[1:] == op[:-1]) & (arr[1:] == arr[:-1])
            & (pos[1:] == pos[:-1] + 1) & ~last[pos[:-1]]
        )
        total = np.count_nonzero(pair)
        good = np.count_nonzero(pair & (np.abs(flat[1:] - flat[:-1]) <= 1))
    if total == 0:
        return 1.0
    return max(floor, good / total)
