"""Tiered native kernel backend.

The scalar closure-per-instruction interpreter in
:mod:`repro.ir.interpreter` is the semantic reference for every kernel
execution, but it pays Python dispatch per IR instruction.  This package
adds a faster tier that preserves its observable behaviour exactly:

``src``
    :mod:`repro.ir.native.codegen` compiles an :class:`IRFunction` into
    type-specialized Python source — registers become locals, loops and
    branches become ``while``/``if`` with the shape of the source, Java
    numeric semantics are the inline expressions of the
    :mod:`repro.ir.java_ops` table, work counters are folded statically
    per basic block, and a buffered launch writes its SE log as columns.
    The source is ``compile()``+``exec()``'d once per (fingerprint,
    flavor) and is stateless/reentrant.

:class:`repro.ir.native.dispatch.KernelDispatcher` fronts the tiers:
with the backend on, a kernel runs on src from its first launch; the
interpreter is the oracle every launch can be crosschecked against
bit-for-bit and the ``native=False`` engine.
"""

from .codegen import DEFAULT_FUEL, NativeKernel, generate_source
from .dispatch import (
    GLOBAL_KERNEL_CACHE,
    KernelCache,
    KernelDispatcher,
    TIER_INTERP,
    TIER_SRC,
)

__all__ = [
    "DEFAULT_FUEL",
    "GLOBAL_KERNEL_CACHE",
    "KernelCache",
    "KernelDispatcher",
    "NativeKernel",
    "TIER_INTERP",
    "TIER_SRC",
    "generate_source",
]
