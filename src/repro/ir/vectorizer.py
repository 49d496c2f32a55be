"""Lock-step execution of lane-parallel direct launches.

A launch runs all its lanes at once, as a warp does: the ``lockstep``
flavor of the generated code (:mod:`repro.ir.native.codegen`) computes
every IR instruction as NumPy over lane vectors under an active-lane
mask, with the array forms of the :mod:`repro.ir.java_ops` table.
Straight-line kernels are the one-block case.  :class:`LaneMemory` is
what its loads and stores address: each array flat, in C order,
bounds-checked over the active lanes only, so a masked-off lane never
faults.  :class:`VectorizedKernel` gives it direct memory;
:class:`repro.ir.specvec.VectorizedSpecKernel` the SE phase's buffered
memory.

A direct launch's precondition is checked, not trusted: a cell one lane
wrote that another lane read or wrote (:class:`LaneConflict`; arrays
sharing memory count too), or a fault of an active lane, undoes the
launch.  The caller reruns it lane by lane, which gives the sequential
result or the interpreter's exact error.  A collapsed kernel runs one
lane per iteration of its inner loop, so the same check covers the
iterations of one index too.
"""

from __future__ import annotations

import numpy as np

from ..errors import JaponicaError, MemoryFault
from .columnar import lane_vector
from .instructions import IRFunction
from .interpreter import ArrayStorage, Counts, DEFAULT_FUEL, N_COUNTERS


class LaneConflict(JaponicaError):
    """A lock-step direct launch whose lanes touched one another's
    cells; it was undone and must run lane by lane."""


class LaneMemory:
    """The arrays of one lock-step launch, addressed per lane.

    ``load(code, x, y, m, full, op, j)`` and ``store(code, x, y, v, m,
    full, op, j)`` are the generated ``_ld``/``_st``: ``code`` indexes
    ``names``; ``x`` (and ``y`` of a 2-D array, else ``None``) are lane
    vectors or uniform scalars; ``m`` is the active-lane mask, ``full``
    whether every lane is active; a lane's ``op[lane] + j`` stamps its
    access (``op`` is ``None`` unless the memory ``logs``).
    ``finish(op)`` returns what the launch returns.
    """

    logs = False

    def __init__(self, storage: ArrayStorage, names, n: int):
        self.storage, self.names, self.n = storage, names, n
        self.arrays = [storage.arrays.get(name) for name in names]
        #: what a flat index addresses: a flat view, or ``ndarray.flat``
        #: of an array that is not C-contiguous
        self.flat = [
            None if a is None else
            a.reshape(-1) if a.flags.c_contiguous else a.flat
            for a in self.arrays
        ]
        self.lanes = np.arange(n)

    def flats(self, code: int, x, y, m, full: bool):
        """Every lane's flat cell (cell 0 in masked-off lanes), or the
        interpreter's :class:`MemoryFault` for an active lane's."""
        arr = self.arrays[code]
        if arr is not None and arr.ndim == (1 if y is None else 2):
            # as unsigned, a negative index is out of bounds too
            f = np.asarray(x if full else x * m).astype(np.intp)
            if f.view(np.uintp).max() < arr.shape[0]:
                if y is None:
                    return f
                g = np.asarray(y if full else y * m).astype(np.intp)
                if g.view(np.uintp).max() < arr.shape[1]:
                    return f * arr.shape[1] + g
        idx = (x,) if y is None else (x, y)
        for p in np.flatnonzero(m):  # the interpreter's check, lane by lane
            self.storage.flat(
                self.names[code], tuple(int(self.each(v)[p]) for v in idx)
            )
        raise MemoryFault(f"access to {self.names[code]!r} out of bounds")

    def each(self, a):
        """``a`` as one value per lane (a uniform scalar repeated)."""
        a = np.asarray(a)
        return a if a.ndim else np.full(self.n, a)

    def active(self, f, v, m, full, dtype):
        """``(lanes, cells, values)`` of the active lanes of an access."""
        f, v = self.each(f), self.each(np.asarray(v).astype(dtype, copy=False))
        return (self.lanes, f, v) if full else (self.lanes[m], f[m], v[m])


class _DirectLanes(LaneMemory):
    """Direct memory: a store writes the array at once and logs the
    cells' old values; the stored arrays' accesses are kept, lane by
    lane, for the conflict check."""

    def __init__(self, storage, names, stored, n):
        super().__init__(storage, names, n)
        self.undo_log: list = []
        #: per stored array code: its (lanes, cells) reads and writes
        self.reads = {code: [] for code in stored}
        self.writes = {code: [] for code in stored}
        for code in stored:
            mine = self.arrays[code]
            if mine is not None and any(
                k != code and a is not None and np.may_share_memory(a, mine)
                for k, a in enumerate(self.arrays)
            ):
                raise LaneConflict(f"{names[code]!r} shares memory")

    def load(self, code, x, y, m, full, op, j):
        f = self.flats(code, x, y, m, full)
        if code in self.reads:
            cells = self.each(f)
            self.reads[code].append(
                (self.lanes, cells) if full else (self.lanes[m], cells[m])
            )
        return self.flat[code][f]

    def store(self, code, x, y, v, m, full, op, j):
        f = self.flats(code, x, y, m, full)
        lanes, cells, values = self.active(
            f, v, m, full, self.arrays[code].dtype
        )
        old = self.flat[code][cells]
        self.flat[code][cells] = values
        self.undo_log.append((code, cells, old))
        self.writes[code].append((lanes, cells))

    def undo(self) -> None:
        """Put back every cell this launch stored, latest store first."""
        for code, cells, old in reversed(self.undo_log):
            self.flat[code][cells] = old

    def finish(self, op):
        """Raise :class:`LaneConflict` if a cell one lane wrote was read
        or written by another lane.  The common DOALL shape, one store
        every lane made to cells ascending with the lane and reads at
        the same cells, takes one pass; otherwise each written cell gets
        one owner (over the span of written cells) and every access is
        compared with it."""
        for code, writes in self.writes.items():
            reads = self.reads[code]
            if not writes or (
                len(writes) == 1 and len(writes[0][0]) == self.n
                and np.all(writes[0][1][1:] > writes[0][1][:-1])
                and all(len(lanes) == self.n
                        and np.array_equal(cells, writes[0][1])
                        for lanes, cells in reads)
            ):
                continue
            w_lane, w_cell = (np.concatenate(c) for c in zip(*writes))
            lo = int(w_cell.min())
            owner = np.full(int(w_cell.max()) - lo + 1, -1)
            owner[w_cell - lo] = w_lane
            conflict = np.any(owner[w_cell - lo] != w_lane)
            if reads and not conflict:
                r_lane, r_cell = (np.concatenate(c) for c in zip(*reads))
                inside = (r_cell >= lo) & (r_cell < lo + len(owner))
                o = owner[r_cell[inside] - lo]
                conflict = np.any((o >= 0) & (o != r_lane[inside]))
            if conflict:
                raise LaneConflict(
                    f"lanes share cells of {self.names[code]!r}"
                )
        return None


def lockstep_code(fn: IRFunction, fuel: int, flavor: str = "lockstep"):
    """The ``lockstep`` (or ``collapsed``) flavor of ``fn`` compiled,
    its array names and the codes of the arrays it stores."""
    # imported on use: repro.ir.native imports this module
    from .native.codegen import NativeKernel, _KernelPlan

    plan = _KernelPlan(fn)
    stored = [plan.array_code[a] for a in plan.arrays_stored]
    return NativeKernel(fn, flavor, fuel), plan.arrays, stored


class VectorizedKernel:
    """A lane-parallel direct launch in lock-step (the ``lockstep``
    tier's direct engine), checked for cross-lane conflicts.

    ``collapsed``: ``fn``'s lane body is one independent counted loop
    (:func:`repro.ir.native.codegen.collapse`; else this raises), and an
    index runs one lane per iteration."""

    tier = "lockstep"

    def __init__(self, fn: IRFunction, fuel: int = DEFAULT_FUEL,
                 collapsed: bool = False):
        from .native.codegen import collapse

        self.fn = fn
        self.collapse = collapse(fn) if collapsed else None
        self.code, self.names, self.stored = lockstep_code(
            fn, fuel, "collapsed" if collapsed else "lockstep"
        )

    def lanes(self, n: int, scalar_env) -> int:
        """How many lanes a launch of ``n`` indices runs: ``n``, or
        collapsed, ``n`` times the loop's trip count."""
        return n if self.collapse is None else n * self.collapse.trip(
            scalar_env
        )

    def run_range(self, storage: ArrayStorage, scalar_env, indices,
                  per_lane: list | None = None) -> Counts:
        """Execute every index in ``indices`` at once; return the work
        and append each index's instruction total to ``per_lane``.  A
        conflict between lanes raises :class:`LaneConflict`; it and any
        fault leave the arrays as they were.  A collapsed launch whose
        loop runs no iteration raises too: its prologue would run in no
        lane."""
        indices = lane_vector(indices)
        raw = [0] * N_COUNTERS
        if len(indices) == 0:
            return Counts()
        n = self.lanes(len(indices), scalar_env)
        if n == 0:
            raise JaponicaError(f"kernel {self.fn.name!r}: no iteration")
        memory = _DirectLanes(storage, self.names, self.stored, n)
        try:
            with np.errstate(all="ignore"):
                self.code.run(indices, scalar_env, memory, raw, per_lane)
        except BaseException:
            memory.undo()
            raise
        return Counts.from_raw(raw)

    def run(self, indices, scalar_env, storage, raw, per_lane):
        """The dispatcher's kernel protocol (see ``NativeKernel.run``)."""
        self.run_range(storage, scalar_env, indices, per_lane).add_to_raw(raw)
