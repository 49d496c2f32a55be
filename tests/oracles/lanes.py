"""The interpreter's own SE log: the ``{index: LaneSpecState}`` dict of
its :class:`~repro.ir.interpreter.SpeculativeBackend`, which every oracle
reads (the dispatcher hands out columns)."""

from __future__ import annotations

from typing import Sequence

from repro.ir.interpreter import (
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
