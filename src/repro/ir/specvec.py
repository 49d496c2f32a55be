"""Lock-step speculative execution: the SE phase of every buffered launch.

The SE phase of GPU-TLS (and every buffered profiling launch) has the
interpreter's :class:`SpeculativeBackend` semantics: writes land in
per-lane buffers, a read is forwarded from the lane's own buffer when it
holds the cell, and read/write sets are logged for dependency checking.
Writes never reach memory, so every buffered launch may run its lanes
in lock-step: :class:`VectorizedSpecKernel` runs the ``lockstep`` flavor
of the generated code (see :mod:`repro.ir.vectorizer`) over buffered
lane memory, observationally equal to the interpreter:

* identical work :class:`Counts` and per-lane totals (every LOAD/STORE
  is metered whether or not the read hits the lane buffer);
* identical logs, built as columns — a read is logged only for lanes
  whose cell is *not* in their buffer, a write is always logged, and a
  lane's ``op`` stamp is its own memory-op ordinal (a forwarded read
  still advances it);
* identical buffered values — store operands are coerced to the array
  element type (lowering inserts the cast, ``java_ops`` rounds FLOAT
  registers to binary32), so buffering them at ``arr.dtype`` forwards
  bit-identical values.

A fault leaves no effect (buffered mode never mutates storage), but its
message may name another lane than the interpreter's, which reports the
first faulting lane in order; the dispatcher reruns such a launch on
the interpreter.
"""

from __future__ import annotations

import numpy as np

from .columnar import ColumnarLanes, lane_vector
from .instructions import IRFunction
from .interpreter import ArrayStorage, Counts, DEFAULT_FUEL, N_COUNTERS
from .vectorizer import LaneMemory, lockstep_code


class _BufferedLanes(LaneMemory):
    """Buffered memory: each lane's writes in its own buffer, reads
    forwarded from it, and the SE log kept as column fragments.

    A stored array's buffers are one dense cell array ``own`` (the lane
    whose buffer holds the cell; ``-1`` none, ``-2`` several lanes) with
    the values ``val``.  The cells several lanes buffered keep their
    values under sorted ``lane * size + cell`` keys in ``shared``, so no
    store sorts more than those.
    """

    logs = True

    def __init__(self, storage, names, indices):
        super().__init__(storage, names, len(indices))
        self.order = indices
        self.own: dict = {}
        self.val: dict = {}
        self.shared: dict = {}
        #: log fragments in execution order: (lanes, op, j, code, cells),
        #: a read's with the mask of its logged lanes (None: all)
        self.read_log: list = []
        self.write_log: list = []

    def load(self, code, x, y, m, full, op, j):
        f = self.each(self.flats(code, x, y, m, full))
        values = self.flat[code][f]
        own = self.own.get(code)
        if own is None:  # no lane buffered this array yet
            self.read_log.append((None if full else m, op, j, code, f))
            return values
        o = own[f]
        hit = (o == self.lanes) if full else (o == self.lanes) & m
        if np.count_nonzero(hit):
            values = np.where(hit, self.val[code][f], values)
        if code in self.shared:
            p = np.flatnonzero(o == -2 if full else (o == -2) & m)
            keys, kept = self.shared[code]
            want = p * len(own) + f[p]
            at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            found = keys[at] == want
            values[p[found]] = kept[at[found]]
            hit[p[found]] = True
        # (bools: m > hit is m and not hit)
        self.read_log.append((~hit if full else m > hit, op, j, code, f))
        return values

    def store(self, code, x, y, v, m, full, op, j):
        f = self.flats(code, x, y, m, full)
        arr = self.arrays[code]
        lanes, cells, values = self.active(f, v, m, full, arr.dtype)
        self.write_log.append((lanes, op, j, code, cells))
        if code not in self.own:
            self.own[code] = np.full(arr.size, -1)
            self.val[code] = np.empty(arr.size, dtype=arr.dtype)
        own, val = self.own[code], self.val[code]
        o = own[cells]
        won = (o == lanes) | (o == -1)
        own[cells[won]] = lanes[won]  # of two lanes on one cell, one wins
        won[won] = own[cells[won]] == lanes[won]
        val[cells[won]] = values[won]
        if np.count_nonzero(won) < len(lanes):
            lost = ~won
            self.share(code, cells[lost], lanes[lost], values[lost])

    def share(self, code, cells, lanes, values) -> None:
        """Buffer cells another lane also buffered: the cells' single
        owners move into ``shared``, then these lanes' values."""
        own, val = self.own[code], self.val[code]
        moving = np.unique(cells[own[cells] >= 0])
        new = np.concatenate([own[moving] * len(own) + moving,
                              lanes * len(own) + cells])
        values = np.concatenate([val[moving], values])
        own[cells] = -2
        keys, kept = self.shared.get(
            code, (np.empty(0, np.int64), np.empty(0, val.dtype))
        )
        at = np.searchsorted(keys, new)
        found = at < len(keys)
        found[found] = keys[at[found]] == new[found]
        kept[at[found]] = values[found]
        s = np.argsort(new[~found])
        self.shared[code] = (
            np.insert(keys, at[~found][s], new[~found][s]),
            np.insert(kept, at[~found][s], values[~found][s]),
        )

    def finish(self, op) -> ColumnarLanes:
        """The launch's SE log: the fragments in (lane, op) order, and
        every lane's final buffered cells."""
        reads = [
            (self.lanes, op, j, code, f) if m is None
            else (self.lanes[m], op, j, code, f[m])
            for m, op, j, code, f in self.read_log
        ]
        buffers = {}
        for code, own in self.own.items():
            cells = np.flatnonzero(own >= 0)
            pos, values = own[cells], self.val[code][cells]
            if code in self.shared:
                keys, kept = self.shared[code]
                pos = np.concatenate([pos, keys // len(own)])
                cells = np.concatenate([cells, keys % len(own)])
                values = np.concatenate([values, kept])
            s = np.lexsort((cells, pos))
            buffers[code] = (pos[s], cells[s], values[s])
        return ColumnarLanes.from_columns(
            self.order, self.names, _columns(reads, self.n),
            _columns(self.write_log, self.n), buffers,
            op_total=int(op.max()) if op is not None and len(op) else 0,
        )


def _columns(fragments, n: int):
    """``(pos, op, code, flat)`` int64 columns in (pos, op) order from
    ``(lanes, op, j, code, cells)`` fragments in execution order, where
    a lane's stamp is ``op[lane] + j``.  Execution order is op order
    within a lane, so a stable sort by lane suffices, and fragments of
    every lane need only a transpose."""
    fragments = [fr for fr in fragments if len(fr[0])]
    if not fragments:
        return (np.empty(0, dtype=np.int64),) * 4
    lanes, ops, js, codes, cells = zip(*fragments)
    if all(len(p) == n for p in lanes):
        return (np.repeat(np.arange(n), len(lanes)),
                np.stack([o + j for o, j in zip(ops, js)], 1).ravel(),
                np.tile(np.array(codes, dtype=np.int64), n),
                np.stack(cells, 1).ravel().astype(np.int64, copy=False))
    pos = np.concatenate(lanes)
    cols = (pos, np.concatenate([o[p] + j for p, o, j in zip(lanes, ops, js)]),
            np.repeat(codes, [len(p) for p in lanes]), np.concatenate(cells))
    s = np.argsort(pos, kind="stable")
    return tuple(c[s].astype(np.int64, copy=False) for c in cols)


class VectorizedSpecKernel:
    """A buffered (speculative) launch in lock-step: the ``lockstep``
    tier's buffered engine."""

    tier = "lockstep"

    def __init__(self, fn: IRFunction, fuel: int = DEFAULT_FUEL):
        self.fn = fn
        self.code, self.names, _stored = lockstep_code(fn, fuel)

    def run_buffered(self, storage: ArrayStorage, scalar_env, indices,
                     per_lane: list | None = None
                     ) -> tuple[Counts, ColumnarLanes]:
        """Execute all lanes speculatively; return (counts, columnar
        lanes) and append each lane's instruction total to
        ``per_lane``."""
        indices = lane_vector(indices)
        raw = [0] * N_COUNTERS
        memory = _BufferedLanes(storage, self.names, indices)
        if len(indices) == 0:
            return Counts(), memory.finish(None)
        with np.errstate(all="ignore"):
            lanes = self.code.run(indices, scalar_env, memory, raw, per_lane)
        return Counts.from_raw(raw), lanes

    def run(self, indices, scalar_env, storage, raw, per_lane):
        """The dispatcher's kernel protocol (see ``NativeKernel.run``)."""
        counts, lanes = self.run_buffered(
            storage, scalar_env, indices, per_lane
        )
        counts.add_to_raw(raw)
        return lanes
