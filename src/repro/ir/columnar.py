"""Columnar speculative-access logs: the one SE-log format.

Every buffered (SE-phase) launch returns a :class:`ColumnarLanes`, and
every consumer — dependency density, coalescing, stride compression,
the TLS dependency check, the commit and the DC volume count — reads
its NumPy columns:

* ``order``/``present`` — iteration id per lane *position* and whether
  the lane ran;
* read/write columns ``(pos, op, array_id, flat)`` sorted by
  ``(pos, op)`` — i.e. grouped per lane in log order;
* per-array buffer columns ``(pos, flat, value)`` with one row per
  final buffered cell, sorted by ``(pos, flat)``, values at the array's
  dtype.

Straight-line kernels produce the columns directly (the vectorized SE
kernel); kernels with control flow run per lane on the src tier or the
interpreter, whose ``{index: LaneSpecState}`` output
:meth:`ColumnarLanes.from_states` converts.  The ``Mapping[int,
LaneSpecState]`` protocol materializes a lane's state on demand; only
the scalar test oracles read it.

Invariant relied upon by the columnar analyses: within a lane the log
lists are op-ascending (every engine appends with a monotonically
increasing op counter).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .interpreter import AccessRecord, ArrayStorage, LaneSpecState


def _as_order_array(iteration_order) -> np.ndarray:
    if isinstance(iteration_order, np.ndarray):
        return iteration_order.astype(np.int64, copy=False)
    return np.fromiter(iteration_order, dtype=np.int64)


class ColumnarLanes(Mapping):
    """The SE log of one buffered launch, as the columns listed above.

    Built by the vectorized SE kernel or by :meth:`from_states`; read by
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
        op_total: Optional[int] = None,
    ):
        self.order = order
        self.present = present
        self.names = names
        self.r_pos, self.r_op, self.r_arr, self.r_flat = reads
        self.w_pos, self.w_op, self.w_arr, self.w_flat = writes
        #: array_id -> (pos, flat, value) final buffered cells, unique per
        #: (pos, flat), sorted by (pos, flat)
        self.buffers = buffers
        self._op_total = op_total
        self._pos_of: Optional[dict[int, int]] = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_states(
        cls,
        states: Mapping[int, LaneSpecState],
        iteration_order: Sequence[int],
        storage: ArrayStorage,
    ) -> "ColumnarLanes":
        """Columns of a per-lane engine's ``{index: LaneSpecState}`` output.

        Log lists must be op-ascending, and a lane's buffer keys must be
        its written cells in first-write order: every engine appends the
        write record before it sets the buffer key, so the deduplicated
        write log names each buffered value's cell.
        """
        order = _as_order_array(iteration_order)
        n = len(order)
        present = np.zeros(n, dtype=bool)
        names: list[str] = []
        aid: dict[str, int] = {}
        r_cols: tuple[list, list, list, list] = ([], [], [], [])
        w_cols: tuple[list, list, list, list] = ([], [], [], [])
        values: list = []
        for p in range(n):
            state = states.get(int(order[p]))
            if state is None:
                continue
            present[p] = True
            for rec in state.reads:
                a = aid.get(rec.array)
                if a is None:
                    a = aid[rec.array] = len(names)
                    names.append(rec.array)
                r_cols[0].append(p)
                r_cols[1].append(rec.op)
                r_cols[2].append(a)
                r_cols[3].append(rec.flat)
            for rec in state.writes:
                a = aid.get(rec.array)
                if a is None:
                    a = aid[rec.array] = len(names)
                    names.append(rec.array)
                w_cols[0].append(p)
                w_cols[1].append(rec.op)
                w_cols[2].append(a)
                w_cols[3].append(rec.flat)
            values.extend(state.buffer.values())

        def cols(raw):
            return tuple(np.array(c, dtype=np.int64) for c in raw)

        # the scan is position-major and each lane's list op-ascending,
        # so the columns are already (pos, op)-sorted
        reads, writes = cols(r_cols), cols(w_cols)
        w_pos, w_op, w_arr, w_flat = writes
        m = int(w_flat.max()) + 1 if len(w_flat) else 1
        # first write per (lane, cell) in (pos, op) order: the buffer
        # keys, in the order ``values`` lists them
        b_pos, _op, b_key = dedup_first(w_pos, w_op, w_arr * m + w_flat)
        b_val = np.array(values, dtype=object)
        b_arr = b_key // m
        buffers: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for a in np.unique(b_arr):
            sel = b_arr == a
            pos, flat = b_pos[sel], b_key[sel] % m
            s = np.lexsort((flat, pos))
            dtype = storage.arrays[names[a]].dtype
            buffers[int(a)] = (pos[s], flat[s], b_val[sel][s].astype(dtype))
        return cls(order, present, names, reads, writes, buffers)

    # -- Mapping protocol ------------------------------------------------

    def __len__(self) -> int:
        return int(self.present.sum())

    def __iter__(self) -> Iterator[int]:
        return (int(it) for it in self.order[self.present])

    def __getitem__(self, iteration: int) -> LaneSpecState:
        pos = self._position_of(iteration)
        if pos is None:
            raise KeyError(iteration)
        return self._materialize(pos)

    def _position_of(self, iteration: int) -> Optional[int]:
        if self._pos_of is None:
            self._pos_of = {
                int(it): p
                for p, it in enumerate(self.order)
                if self.present[p]
            }
        return self._pos_of.get(iteration)

    def _materialize(self, pos: int) -> LaneSpecState:
        names = self.names
        lo, hi = np.searchsorted(self.r_pos, [pos, pos + 1])
        reads = [
            AccessRecord(int(o), "R", names[a], int(f))
            for o, a, f in zip(
                self.r_op[lo:hi], self.r_arr[lo:hi], self.r_flat[lo:hi]
            )
        ]
        lo, hi = np.searchsorted(self.w_pos, [pos, pos + 1])
        writes = [
            AccessRecord(int(o), "W", names[a], int(f))
            for o, a, f in zip(
                self.w_op[lo:hi], self.w_arr[lo:hi], self.w_flat[lo:hi]
            )
        ]
        buffer: dict[tuple[str, int], object] = {}
        for a_id, (b_pos, b_flat, b_val) in self.buffers.items():
            lo, hi = np.searchsorted(b_pos, [pos, pos + 1])
            name = names[a_id]
            for f, v in zip(b_flat[lo:hi], b_val[lo:hi]):
                buffer[(name, int(f))] = v.item()
        return LaneSpecState(
            buffer=buffer, reads=reads, writes=writes,
            op=int(self._op_total or 0),
        )

    # -- queries ----------------------------------------------------------

    @property
    def n_positions(self) -> int:
        return len(self.order)

    @property
    def n_present(self) -> int:
        return int(self.present.sum())

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
        commit = np.fromiter(iterations, dtype=np.int64)
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
    the first log entry; rows come in (pos, op)-sorted and leave the
    same way.
    """
    if len(pos) == 0:
        return pos, op, key
    s = np.lexsort((op, key, pos))
    p, o, k = pos[s], op[s], key[s]
    first = np.ones(len(p), dtype=bool)
    first[1:] = (p[1:] != p[:-1]) | (k[1:] != k[:-1])
    p, o, k = p[first], o[first], k[first]
    s2 = np.lexsort((o, p))
    return p[s2], o[s2], k[s2]


def first_seen_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank cells by first appearance in a scan-ordered key column.

    Returns ``(uniq_sorted, rank)``: for the sorted unique keys, the
    order in which each was first seen — the insertion order of the
    scalar analysis' per-cell dicts.  Look up a key's rank with
    ``rank[np.searchsorted(uniq_sorted, key)]``.
    """
    uniq, first_idx = np.unique(keys, return_index=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first_idx, kind="stable")] = np.arange(len(uniq))
    return uniq, rank
