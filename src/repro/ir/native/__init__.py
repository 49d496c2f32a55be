"""Tiered native kernel backend.

The scalar closure-per-instruction interpreter in
:mod:`repro.ir.interpreter` is the semantic reference for every kernel
execution, but it pays Python dispatch per IR instruction.  This package
adds two faster tiers that preserve its observable behaviour exactly,
both from :mod:`repro.ir.native.codegen`, which compiles an
:class:`IRFunction` into type-specialized Python source — registers
become locals, loops and branches ``while``/``if`` with the shape of the
source, Java numeric semantics the :mod:`repro.ir.java_ops` table, work
counters folded statically per basic block — ``compile()``+``exec()``'d
once per (fingerprint, flavor), stateless and reentrant:

``src``
    one lane after another, in Python values;
``lockstep``
    every lane of a launch at once, as NumPy over lane vectors under an
    active-lane mask (:mod:`repro.ir.vectorizer`,
    :mod:`repro.ir.specvec`); a buffered launch writes its SE log as
    columns.

:class:`repro.ir.native.dispatch.KernelDispatcher` picks the tier per
launch and compiles on a kernel's first launch; the interpreter is the
oracle every launch can be crosschecked against bit-for-bit and the
``native=False`` engine.
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
