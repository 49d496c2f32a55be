"""Columnar speculative-access logs: the one SE-log format.

Every buffered (SE-phase) launch returns a :class:`ColumnarLanes`, and
every consumer — dependency density, coalescing, the TLS dependency
check, the commit and the DC volume count — reads its NumPy columns:

* ``order``/``present`` — iteration id per lane *position* and whether
  the lane ran;
* read/write columns ``(pos, op, array_id, flat)`` sorted by
  ``(pos, op)`` — i.e. grouped per lane in log order;
* per-array buffer columns ``(pos, flat, value)`` with one row per
  final buffered cell, sorted by ``(pos, flat)``, values at the array's
  dtype.

The lock-step SE kernel (:mod:`repro.ir.specvec`) produces the columns
of every buffered launch directly.  Only the interpreter, the oracle,
keeps the ``{index: LaneSpecState}`` dict of its ``SpeculativeBackend``;
:meth:`ColumnarLanes.from_states` is its adapter.  Both end in
:meth:`ColumnarLanes.from_columns`.

Invariant relied upon by the columnar analyses: within a lane the log
lists are op-ascending (every engine appends with a monotonically
increasing op counter).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from .interpreter import ArrayStorage, LaneSpecState


def lane_vector(indices: Sequence[int]) -> np.ndarray:
    """A launch's iteration indices as an int64 vector, one per lane: a
    ``range`` through ``np.arange``, with no Python int per lane."""
    if isinstance(indices, range):
        return np.arange(
            indices.start, indices.stop, indices.step, dtype=np.int64
        )
    return np.asarray(indices, dtype=np.int64)


#: rows of a log that one compare scans for every array code at once
_HEAD_ROWS = 1024


def _first_rows(code: np.ndarray, k: int) -> np.ndarray:
    """Row of each of ``k`` codes' first appearance in ``code``, -1 where
    it is absent.  One compare over the first ``_HEAD_ROWS`` rows finds
    every code that appears there (each lane logs its arrays early);
    only the others scan the rest of the column."""
    rows = np.full(k, -1)
    if len(code) == 0:
        return rows
    head = code[:_HEAD_ROWS] == np.arange(k)[:, None]
    seen = head.any(axis=1)
    rows[seen] = head.argmax(axis=1)[seen]
    for c in np.flatnonzero(~seen).tolist():
        hit = code[_HEAD_ROWS:] == c
        if hit.any():
            rows[c] = _HEAD_ROWS + int(hit.argmax())
    return rows


class ColumnarLanes:
    """The SE log of one buffered launch, as the columns listed above.

    Built by the lock-step SE kernel or by :meth:`from_states`; read by
    the profiler's analyses, the TLS dependency check, :meth:`commit`
    and :meth:`logged_accesses`.
    """

    def __init__(
        self,
        order: np.ndarray,
        present: np.ndarray,
        names: list[str],
        reads: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        writes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        buffers: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]],
    ):
        self.order = order
        self.present = present
        self.names = names
        self.r_pos, self.r_op, self.r_arr, self.r_flat = reads
        self.w_pos, self.w_op, self.w_arr, self.w_flat = writes
        #: array_id -> (pos, flat, value) final buffered cells, unique per
        #: (pos, flat), sorted by (pos, flat)
        self.buffers = buffers

    # -- construction ----------------------------------------------------

    @classmethod
    def from_states(
        cls,
        states: Mapping[int, LaneSpecState],
        iteration_order: Sequence[int],
        storage: ArrayStorage,
    ) -> "ColumnarLanes":
        """Columns of the interpreter's ``{index: LaneSpecState}`` output,
        the oracle's SE log.  A position whose iteration has no state is
        not ``present``.  Log lists must be op-ascending."""
        order = lane_vector(iteration_order)
        present = np.zeros(len(order), dtype=bool)
        code: dict[str, int] = {}
        reads: tuple[list, list, list, list] = ([], [], [], [])
        writes: tuple[list, list, list, list] = ([], [], [], [])
        cells: tuple[list, list, list, list] = ([], [], [], [])
        for p, it in enumerate(order.tolist()):
            state = states.get(it)
            if state is None:
                continue
            present[p] = True
            for cols, log in ((reads, state.reads), (writes, state.writes)):
                for rec in log:
                    cols[0].append(p)
                    cols[1].append(rec.op)
                    cols[2].append(code.setdefault(rec.array, len(code)))
                    cols[3].append(rec.flat)
            for (name, flat), value in state.buffer.items():
                for col, item in zip(cells, (p, code[name], flat, value)):
                    col.append(item)
        pos, c_code, flat = (np.array(c, dtype=np.int64) for c in cells[:3])
        values = np.array(cells[3], dtype=object)
        buffers = {}
        for c, name in enumerate(code):
            rows = np.flatnonzero(c_code == c)
            if len(rows):
                rows = rows[np.lexsort((flat[rows], pos[rows]))]
                buffers[c] = (
                    pos[rows], flat[rows],
                    values[rows].astype(storage.arrays[name].dtype),
                )
        return cls.from_columns(
            order, list(code),
            tuple(np.array(col, dtype=np.int64) for col in reads),
            tuple(np.array(col, dtype=np.int64) for col in writes),
            buffers, present,
        )

    @classmethod
    def from_columns(
        cls,
        order: np.ndarray,
        arrays: Sequence[str],
        reads: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        writes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        buffers: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]],
        present: Optional[np.ndarray] = None,
    ) -> "ColumnarLanes":
        """An SE log whose array column holds codes into ``arrays``:
        the interpreter's (:meth:`from_states`) or the lock-step
        engine's.

        ``reads``/``writes`` are ``(pos, op, code, flat)`` int64 columns
        in (pos, op) order; ``buffers[code]`` the array's final buffered
        cells as ``(pos, flat, value)`` sorted by (pos, flat), values at
        its dtype.  Array ids are numbered in first-seen order: lane by
        lane, its reads, then its writes.  ``present`` defaults to every
        lane having run.
        """
        r_pos, r_op, r_code, r_flat = reads
        w_pos, w_op, w_code, w_flat = writes
        first: dict[int, tuple[int, int, int]] = {}
        for kind, pos, code in ((0, r_pos, r_code), (1, w_pos, w_code)):
            rows = _first_rows(code, len(arrays)).tolist()
            for c, row in enumerate(rows):
                if row >= 0:
                    seen = (int(pos[row]), kind, row)
                    first[c] = min(first.get(c, seen), seen)
        by_seen = sorted(first, key=first.__getitem__)
        ids = np.zeros(len(arrays), dtype=np.int64)
        ids[by_seen] = np.arange(len(by_seen))
        if by_seen != list(range(len(by_seen))):  # else ids[code] == code
            r_code, w_code = ids[r_code], ids[w_code]
        return cls(
            order,
            np.ones(len(order), dtype=bool) if present is None else present,
            [arrays[c] for c in by_seen],
            (r_pos, r_op, r_code, r_flat),
            (w_pos, w_op, w_code, w_flat),
            {int(ids[c]): buffers[c]
             for c in sorted(buffers, key=ids.__getitem__)},
        )

    # -- queries ----------------------------------------------------------

    @property
    def n_positions(self) -> int:
        return len(self.order)

    @property
    def n_present(self) -> int:
        return int(self.present.sum())

    def differing_columns(self, other: "ColumnarLanes") -> list[str]:
        """Names of the columns in which ``other`` differs, bitwise."""

        def same(a: np.ndarray, b: np.ndarray) -> bool:
            return (
                a.dtype == b.dtype
                and a.shape == b.shape
                and a.tobytes() == b.tobytes()
            )

        out = [
            name
            for name in ("order", "present", "r_pos", "r_op", "r_arr",
                         "r_flat", "w_pos", "w_op", "w_arr", "w_flat")
            if not same(getattr(self, name), getattr(other, name))
        ]
        if self.names != other.names:
            out.append("names")
        if list(self.buffers) != list(other.buffers):
            out.append("buffers")
            return out
        for a_id, cols in self.buffers.items():
            for label, mine, theirs in zip(
                ("pos", "flat", "value"), cols, other.buffers[a_id]
            ):
                if not same(mine, theirs):
                    out.append(f"buffers[{a_id}].{label}")
        return out

    def logged_accesses(self) -> int:
        """Total logged reads + writes (the DD/DC analysis input volume)."""
        return len(self.r_pos) + len(self.w_pos)

    # -- commit -----------------------------------------------------------

    def commit(
        self, storage: ArrayStorage, iterations: Sequence[int]
    ) -> tuple[int, int]:
        """Apply buffers of ``iterations`` in the given sequential order.

        Returns ``(cells_written, bytes_written)``; the last lane (in the
        given order) to buffer a cell wins, so overlapping writes resolve
        to the sequentially-last writer.
        """
        commit = lane_vector(iterations)
        if len(commit) == 0 or not self.buffers:
            return 0, 0
        # rank of each lane position in the commit sequence (-1 = skip)
        rank_of_pos = np.full(len(self.order), -1, dtype=np.int64)
        o_sort = np.argsort(self.order, kind="stable")
        idx = np.searchsorted(self.order[o_sort], commit)
        ok = idx < len(o_sort)
        cand = o_sort[idx[ok]]
        hit = (self.order[cand] == commit[ok]) & self.present[cand]
        rank_of_pos[cand[hit]] = np.nonzero(ok)[0][hit]
        cells = 0
        nbytes = 0
        for a_id, (b_pos, b_flat, b_val) in self.buffers.items():
            rank = rank_of_pos[b_pos]
            sel = rank >= 0
            rows = int(sel.sum())
            if rows == 0:
                continue
            f, r, v = b_flat[sel], rank[sel], b_val[sel]
            s = np.lexsort((r, f))
            f, v = f[s], v[s]
            last = np.ones(len(f), dtype=bool)
            last[:-1] = f[:-1] != f[1:]
            arr = storage.arrays[self.names[a_id]]
            arr.flat[f[last]] = v[last]
            cells += rows
            nbytes += rows * arr.dtype.itemsize
        return cells, nbytes


# ---------------------------------------------------------------------------
# Shared column kit for the vectorized analyses
# ---------------------------------------------------------------------------


def cell_keys(col: ColumnarLanes) -> tuple[np.ndarray, np.ndarray, int]:
    """Encode (array, flat) cells as single int64 keys for both logs.

    Returns ``(read_keys, write_keys, M)`` with ``key = array_id * M +
    flat``; ``key // M`` recovers the array id.
    """
    m = 0
    if len(col.r_flat):
        m = max(m, int(col.r_flat.max()))
    if len(col.w_flat):
        m = max(m, int(col.w_flat.max()))
    m += 1
    return col.r_arr * m + col.r_flat, col.w_arr * m + col.w_flat, m


def dedup_first(
    pos: np.ndarray, op: np.ndarray, key: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First occurrence per (lane position, cell key), in scan order.

    The scalar analyses consider each cell once per iteration, keeping
    the first log entry.  Rows come in (pos, op) order, op stamps unique
    within a lane, and leave the same way: a stable sort by the packed
    key ``pos * span + key`` keeps each group in op order, so its first
    row is the first occurrence, and the kept row numbers sorted are
    back in scan order.  A packed key that could overflow int64 falls
    back to a multi-key sort.
    """
    if len(pos) == 0:
        return pos, op, key
    kmin = int(key.min())
    span = int(key.max()) - kmin + 1
    if (int(pos.max()) + 1) * span <= np.iinfo(np.int64).max:
        s = np.argsort(pos * span + (key - kmin), kind="stable")
    else:
        s = np.lexsort((op, key, pos))
    p, k = pos[s], key[s]
    first = np.ones(len(p), dtype=bool)
    first[1:] = (p[1:] != p[:-1]) | (k[1:] != k[:-1])
    rows = np.sort(s[first])
    return pos[rows], op[rows], key[rows]
