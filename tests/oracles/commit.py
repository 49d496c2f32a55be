"""Scalar oracles of :meth:`repro.ir.columnar.ColumnarLanes.commit` and
:meth:`~repro.ir.columnar.ColumnarLanes.logged_accesses`."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.ir.interpreter import ArrayStorage, LaneSpecState


def commit_scalar(
    lanes: Mapping[int, LaneSpecState],
    storage: ArrayStorage,
    iterations: Sequence[int],
) -> tuple[int, int]:
    """Apply the buffers of ``iterations`` (in the given sequential order).

    Returns ``(cells_written, bytes_written)``.
    """
    cells = 0
    nbytes = 0
    for it in iterations:
        state = lanes.get(it)
        if state is None:
            continue
        for (name, flat), value in state.buffer.items():
            storage.write_flat(name, flat, value)
            cells += 1
            nbytes += storage.arrays[name].dtype.itemsize
    return cells, nbytes


def logged_accesses_scalar(lanes: Mapping[int, LaneSpecState]) -> int:
    """Logged reads + writes over every lane."""
    return sum(
        len(state.reads) + len(state.writes) for state in lanes.values()
    )
