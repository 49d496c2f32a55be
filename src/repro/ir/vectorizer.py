"""Vectorized executor for straight-line kernels.

Kernels whose body is a single basic block (no data-dependent control
flow) can be executed for a whole iteration range at once with NumPy,
instead of one interpreted index at a time.  This is the reproduction's
stand-in for the SIMD throughput of real hardware: it keeps big DOALL
loops (VectorAdd, Sepia, MVT row kernels) tractable at realistic sizes.

The vectorized path must be observationally identical to the scalar
interpreter — bitwise-equal results and the same dynamic work counts.
Both come from shared definitions: every value is computed by the array
form of the :mod:`repro.ir.java_ops` rule the interpreter runs in scalar
form, and every instruction is metered by
:func:`repro.ir.interpreter.category`.  :func:`run_lanes` is the one
instruction walk; this module's :class:`VectorizedKernel` gives it
direct memory, :class:`repro.ir.specvec.VectorizedSpecKernel` buffered
memory with read/write logs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import JaponicaError, MemoryFault
from . import java_ops
from .instructions import IRFunction, Opcode
from .interpreter import ArrayStorage, C_TOTAL, Counts, N_COUNTERS, category


def can_vectorize(fn: IRFunction) -> bool:
    """True when the kernel body is a single straight-line block."""
    return fn.is_straightline


def check_vectorizable(fn: IRFunction) -> None:
    """Raise unless the kernel body is a single straight-line block."""
    if not can_vectorize(fn):
        raise JaponicaError(
            f"kernel {fn.name!r} has control flow and cannot be vectorized"
        )


def lane_values(value, n: int, dtype) -> np.ndarray:
    """``value`` as ``n`` lanes of ``dtype`` (a scalar is broadcast)."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 0:
        return np.broadcast_to(arr, (n,))
    return arr


def lane_indices(
    storage: ArrayStorage, name: str, idx, n: int
) -> list[np.ndarray]:
    """Bounds-check one access over all lanes; returns per-axis indices.

    Messages match :meth:`ArrayStorage.flat`; the reported index is the
    first faulting lane's on the first faulting axis.
    """
    shape = storage.shapes.get(name)
    if shape is None:
        raise MemoryFault(f"unbound array {name!r}")
    if len(idx) != len(shape):
        raise MemoryFault(
            f"array {name!r} has {len(shape)} dims, got {len(idx)} indices"
        )
    vecs = [lane_values(v, n, np.int64) for v in idx]
    for k, (v, d) in enumerate(zip(vecs, shape)):
        bad = (v < 0) | (v >= d)
        if np.any(bad):
            i = int(v[np.argmax(bad)])
            raise MemoryFault(
                f"index {i} out of bounds for axis {k} of {name!r} (size {d})"
            )
    return vecs


def run_lanes(
    fn: IRFunction,
    storage: ArrayStorage,
    scalar_env: dict[str, object],
    indices: np.ndarray,
    load: Callable,
    store: Callable,
) -> Counts:
    """Execute a straight-line body for every lane in ``indices``.

    Memory goes through ``load(instr, vecs) -> values`` and
    ``store(instr, vecs, value)``, where ``vecs`` are the bounds-checked
    per-axis lane indices; everything else is the table's array forms.
    """
    n = int(indices.shape[0])
    regs: list = [None] * fn.num_regs
    regs[fn.index.id] = indices.astype(np.int32)
    for param in fn.scalars:
        try:
            value = scalar_env[param.name]
        except KeyError:
            raise JaponicaError(
                f"kernel {fn.name!r} missing scalar {param.name!r}"
            ) from None
        regs[fn.scalar_regs[param.name].id] = java_ops.NP_TYPE[param.type](
            value
        )
    raw = [0] * N_COUNTERS
    with np.errstate(all="ignore"):
        for instr in fn.entry.instrs:
            op = instr.op
            if op is Opcode.CONST:
                regs[instr.dst.id] = java_ops.NP_TYPE[instr.dst.type](
                    instr.value
                )
            elif op is Opcode.MOV:
                regs[instr.dst.id] = regs[instr.a.id]
            elif op is Opcode.BIN:
                rule = java_ops.bin_rule(instr.binop, instr.a.type)
                regs[instr.dst.id] = rule.array(
                    regs[instr.a.id], regs[instr.b.id]
                )
            elif op is Opcode.UN:
                rule = java_ops.un_rule(instr.binop, instr.dst.type)
                regs[instr.dst.id] = rule.array(regs[instr.a.id])
            elif op is Opcode.CAST:
                rule = java_ops.CAST_RULES[instr.a.type, instr.dst.type]
                regs[instr.dst.id] = rule.array(regs[instr.a.id])
            elif op is Opcode.CALL:
                _scalar, core, convert = java_ops.call_rule(
                    instr.intrinsic, instr.dst.type
                )
                regs[instr.dst.id] = convert.array(
                    core(*[regs[r.id] for r in instr.args])
                )
            elif op is Opcode.LOAD:
                vecs = lane_indices(
                    storage, instr.array, [regs[r.id] for r in instr.idx], n
                )
                regs[instr.dst.id] = load(instr, vecs)
            elif op is Opcode.STORE:
                vecs = lane_indices(
                    storage, instr.array, [regs[r.id] for r in instr.idx], n
                )
                store(instr, vecs, regs[instr.a.id])
            elif op is not Opcode.RET:  # BR/CBR end a multi-block kernel
                raise JaponicaError(f"unexpected opcode {op} in vector path")
            cat = category(instr)
            if cat is not None:
                raw[cat] += n
            raw[C_TOTAL] += n
    return Counts.from_raw(raw)


class VectorizedKernel:
    """Executes a straight-line kernel over a full index range at once."""

    def __init__(self, fn: IRFunction):
        check_vectorizable(fn)
        self.fn = fn

    def run_range(
        self,
        storage: ArrayStorage,
        scalar_env: dict[str, object],
        indices: np.ndarray,
    ) -> Counts:
        """Execute iterations for every index in ``indices`` (ascending order
        semantics for overlapping stores)."""
        n = int(indices.shape[0])
        if n == 0:
            return Counts()

        def load(instr, vecs):
            return storage.arrays[instr.array][tuple(vecs)]

        def store(instr, vecs, value):
            arr = storage.arrays[instr.array]
            arr[tuple(vecs)] = lane_values(value, n, arr.dtype)

        return run_lanes(self.fn, storage, scalar_env, indices, load, store)
