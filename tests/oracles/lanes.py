"""The interpreter's own SE log: the ``{index: LaneSpecState}`` dict of
its :class:`~repro.ir.interpreter.SpeculativeBackend`, which every oracle
reads (the dispatcher hands out columns), :func:`as_states`, which turns
a launch's columns back into that dict, and :func:`first_seen_codes`,
the reference numbering of :meth:`ColumnarLanes.from_columns`."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ir.columnar import ColumnarLanes
from repro.ir.interpreter import (
    AccessRecord,
    ArrayStorage,
    C_TOTAL,
    CompiledKernel,
    Counts,
    LaneSpecState,
    SpeculativeBackend,
)


def interpreter_lanes(
    fn, indices: Sequence[int], env: dict, storage: ArrayStorage
) -> tuple[list[int], Counts, dict[int, LaneSpecState]]:
    """Run ``fn`` over ``indices`` in order on the interpreter, writes
    buffered.  Returns ``(per_lane, counts, {index: LaneSpecState})``."""
    kern = CompiledKernel(fn)
    backend = SpeculativeBackend(storage)
    per_lane = []
    for i in indices:
        before = kern.counters[C_TOTAL]
        kern.run_index(i, env, backend)
        per_lane.append(kern.counters[C_TOTAL] - before)
    return per_lane, kern.take_counts(), backend.lanes


def as_states(lanes: ColumnarLanes) -> dict[int, LaneSpecState]:
    """``{iteration: LaneSpecState}`` of the lanes that ran, in launch
    order: each lane's logged reads and writes and its final buffered
    cells, read back from the columns (the state's ``op`` stays 0; no
    oracle reads it)."""
    names = lanes.names
    states = {}
    for pos in np.flatnonzero(lanes.present).tolist():
        logs = []
        for kind, col_pos, op, arr, flat in (
            ("R", lanes.r_pos, lanes.r_op, lanes.r_arr, lanes.r_flat),
            ("W", lanes.w_pos, lanes.w_op, lanes.w_arr, lanes.w_flat),
        ):
            lo, hi = np.searchsorted(col_pos, [pos, pos + 1])
            logs.append([
                AccessRecord(o, kind, names[a], f)
                for o, a, f in zip(op[lo:hi].tolist(), arr[lo:hi].tolist(),
                                   flat[lo:hi].tolist())
            ])
        buffer: dict[tuple[str, int], object] = {}
        for a_id, (b_pos, b_flat, b_val) in lanes.buffers.items():
            lo, hi = np.searchsorted(b_pos, [pos, pos + 1])
            for f, v in zip(b_flat[lo:hi].tolist(), b_val[lo:hi]):
                buffer[(names[a_id], f)] = v.item()
        states[int(lanes.order[pos])] = LaneSpecState(
            buffer=buffer, reads=logs[0], writes=logs[1]
        )
    return states


def first_seen_codes(arrays, reads, writes) -> list[int]:
    """The array codes of :meth:`ColumnarLanes.from_columns` input in
    first-seen order (lane by lane, its reads, then its writes): a code's
    id is its index here.  One full-column compare per code and log."""
    first: dict[int, tuple[int, int, int]] = {}
    for kind, (pos, _op, code, _flat) in enumerate((reads, writes)):
        for c in range(len(arrays)):
            hit = code == c
            if hit.any():
                row = int(hit.argmax())
                seen = (int(pos[row]), kind, row)
                first[c] = min(first.get(c, seen), seen)
    return sorted(first, key=first.__getitem__)
