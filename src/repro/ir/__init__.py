"""Kernel IR: instructions, lowering from the AST, and interpreters."""

from .builder import IRBuilder
from .instructions import (
    ArrayParam,
    Block,
    Instr,
    IRFunction,
    JType,
    Opcode,
    Reg,
    ScalarParam,
    jtype_of_prim,
)
from .interpreter import (
    AccessRecord,
    ArrayStorage,
    CompiledKernel,
    Counts,
    DirectBackend,
    FuelExhausted,
    SpeculativeBackend,
    TracingBackend,
    run_sequential,
)
from .lower import length_param, lower_loop_body, promote
from .vectorizer import VectorizedKernel

__all__ = [
    "AccessRecord",
    "ArrayParam",
    "ArrayStorage",
    "Block",
    "CompiledKernel",
    "Counts",
    "DirectBackend",
    "FuelExhausted",
    "IRBuilder",
    "IRFunction",
    "Instr",
    "JType",
    "Opcode",
    "Reg",
    "ScalarParam",
    "SpeculativeBackend",
    "TracingBackend",
    "VectorizedKernel",
    "jtype_of_prim",
    "length_param",
    "lower_loop_body",
    "promote",
    "run_sequential",
]
