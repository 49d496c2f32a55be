"""Vectorized speculative execution for straight-line kernels.

The SE phase of GPU-TLS (and every buffered profiling launch) runs the
kernel with a :class:`SpeculativeBackend`: writes land in per-lane
buffers, reads are forwarded from the lane's own buffer when possible,
and read/write sets are logged for dependency checking.  For
single-block kernels the whole launch is data-independent per lane, so
the address streams, buffers and logs can be produced with NumPy over
all lanes at once — this module is the buffered-mode twin of
:class:`repro.ir.vectorizer.VectorizedKernel`.  Both run the one
instruction walk :func:`repro.ir.vectorizer.run_lanes`; this module adds
only the memory side, LOAD forwarding and the read/write logs, and must
match the scalar backend observationally:

* identical work :class:`Counts` (every LOAD/STORE is metered whether or
  not the read hits the lane buffer, exactly like the closure path);
* identical logs — a read is logged only for lanes whose cell is *not*
  in their buffer, a write is always logged, and the per-lane ``op``
  timestamp is the memory-op ordinal, which in straight-line code is the
  static site index and therefore uniform across lanes;
* identical buffered values — store operands are coerced to the array
  element type (lowering inserts the cast, ``java_ops`` rounds FLOAT
  registers to binary32), so buffering them at ``arr.dtype`` forwards
  bit-identical values.

Bounds faults are raised before any observable effect (buffered mode
never mutates storage), though fault *identity* may differ from the
scalar path: this path reports the first faulting instruction across
lanes, the scalar loop the first faulting lane — the same trade the
direct vectorized path already makes.
"""

from __future__ import annotations

import numpy as np

from .columnar import ColumnarLanes
from .instructions import IRFunction
from .interpreter import ArrayStorage, Counts
from .vectorizer import check_vectorizable, lane_values, run_lanes


class VectorizedSpecKernel:
    """Buffered (speculative) execution of a straight-line kernel."""

    def __init__(self, fn: IRFunction):
        check_vectorizable(fn)
        self.fn = fn

    def run_buffered(
        self,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
        indices: np.ndarray,
    ) -> tuple[Counts, ColumnarLanes]:
        """Execute all lanes speculatively; return (counts, columnar lanes)."""
        n = int(indices.shape[0])
        order = indices.astype(np.int64)
        names: list[str] = []
        aid: dict[str, int] = {}

        def array_id(name: str) -> int:
            a = aid.get(name)
            if a is None:
                a = aid[name] = len(names)
                names.append(name)
            return a

        if n == 0:
            empty = (np.empty(0, np.int64),) * 4
            return Counts(), ColumnarLanes(
                order, np.zeros(0, dtype=bool), names,
                empty, empty, buffers={}, op_total=0,
            )

        op_slot = 0
        #: array_id -> ordered list of (op slot, flats[n], values[n])
        store_sites: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
        #: logged reads: (op slot, array_id, lane positions, flats)
        read_parts: list[tuple[int, int, np.ndarray, np.ndarray]] = []
        #: logged writes: (op slot, array_id, flats[n])
        write_parts: list[tuple[int, int, np.ndarray]] = []

        def flat_addresses(instr, vecs):
            if len(vecs) > 1:
                return vecs[0] * storage.shapes[instr.array][1] + vecs[1]
            return vecs[0]

        def load(instr, vecs):
            nonlocal op_slot
            a_id = array_id(instr.array)
            flats = flat_addresses(instr, vecs)
            cur = storage.arrays[instr.array][tuple(vecs)]
            unhit = np.ones(n, dtype=bool)
            for _slot, s_flats, s_vals in store_sites.get(a_id, ()):
                m = s_flats == flats
                cur = np.where(m, s_vals, cur)
                unhit &= ~m
            read_parts.append(
                (op_slot, a_id, np.nonzero(unhit)[0], flats[unhit])
            )
            op_slot += 1
            return cur

        def store(instr, vecs, value):
            nonlocal op_slot
            a_id = array_id(instr.array)
            flats = flat_addresses(instr, vecs)
            vals = lane_values(value, n, storage.arrays[instr.array].dtype)
            write_parts.append((op_slot, a_id, flats))
            store_sites.setdefault(a_id, []).append(
                (op_slot, flats, vals.copy())
            )
            op_slot += 1

        counts = run_lanes(self.fn, storage, scalar_env, indices, load, store)

        reads = _finalize_log(read_parts)
        writes = _finalize_log(
            [(s, a, np.arange(n, dtype=np.int64), f)
             for (s, a, f) in write_parts]
        )
        buffers: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        lane_pos = np.arange(n, dtype=np.int64)
        for a_id, sites in store_sites.items():
            f = np.concatenate([flats for _s, flats, _v in sites])
            v = np.concatenate([vals for _s, _f, vals in sites])
            pos = np.tile(lane_pos, len(sites))
            site_ord = np.repeat(np.arange(len(sites)), n)
            s = np.lexsort((site_ord, f, pos))
            pos, f, v = pos[s], f[s], v[s]
            last = np.ones(len(pos), dtype=bool)
            last[:-1] = (pos[:-1] != pos[1:]) | (f[:-1] != f[1:])
            buffers[a_id] = (pos[last], f[last], v[last])

        lanes = ColumnarLanes(
            order, np.ones(n, dtype=bool), names,
            reads, writes, buffers=buffers, op_total=op_slot,
        )
        return counts, lanes


def _finalize_log(parts):
    """Concatenate per-site log fragments into (pos, op, arr, flat) columns
    sorted by (pos, op) — i.e. grouped per lane in log order."""
    if not parts:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy(), e.copy()
    pos = np.concatenate([p for _s, _a, p, _f in parts])
    op = np.concatenate([
        np.full(len(p), s, dtype=np.int64) for s, _a, p, _f in parts
    ])
    arr = np.concatenate([
        np.full(len(p), a, dtype=np.int64) for _s, a, p, _f in parts
    ])
    flat = np.concatenate([f for _s, _a, _p, f in parts]).astype(
        np.int64, copy=False
    )
    s = np.lexsort((op, pos))
    return pos[s], op[s], arr[s], flat[s]
