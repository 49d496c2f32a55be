"""Kernel IR: a typed register machine with basic blocks.

Annotated loop bodies are lowered to one :class:`IRFunction` per loop (the
"CUDA kernel body" of the paper's translator).  The same IR is interpreted
by the GPU simulator (one logical thread per iteration), by the CPU
executor (one thread per chunk of iterations), and by the sequential
reference interpreter, so functional results are comparable bit-for-bit.

Java numeric semantics are preserved: ``int``/``long`` wrap on overflow,
``/`` truncates toward zero, ``%`` follows the dividend's sign, and shifts
mask their count.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional


class JType(enum.Enum):
    """Value types carried by IR registers."""

    INT = "int"
    LONG = "long"
    FLOAT = "float"
    DOUBLE = "double"
    BOOL = "boolean"

    @property
    def is_integral(self) -> bool:
        return self in (JType.INT, JType.LONG, JType.BOOL)

    @property
    def is_floating(self) -> bool:
        return self in (JType.FLOAT, JType.DOUBLE)


def jtype_of_prim(name: str) -> JType:
    """Map a mini-Java primitive type name to a :class:`JType`."""
    return _JTYPE_OF_PRIM[name]


_JTYPE_OF_PRIM = {t.value: t for t in JType}


class Opcode(enum.Enum):
    CONST = "const"
    MOV = "mov"
    BIN = "bin"
    UN = "un"
    CAST = "cast"
    LOAD = "load"
    STORE = "store"
    CALL = "call"
    BR = "br"
    CBR = "cbr"
    RET = "ret"


#: Binary operators the BIN instruction accepts.
BIN_OPS = frozenset(
    {
        "+",
        "-",
        "*",
        "/",
        "%",
        "<<",
        ">>",
        ">>>",
        "&",
        "|",
        "^",
        "<",
        "<=",
        ">",
        ">=",
        "==",
        "!=",
    }
)

#: Unary operators the UN instruction accepts.
UN_OPS = frozenset({"-", "!", "~"})

#: Math intrinsics with their argument counts.
INTRINSICS = {
    "Math.sqrt": 1,
    "Math.exp": 1,
    "Math.log": 1,
    "Math.pow": 2,
    "Math.abs": 1,
    "Math.min": 2,
    "Math.max": 2,
    "Math.floor": 1,
    "Math.ceil": 1,
    "Math.sin": 1,
    "Math.cos": 1,
    "Math.tan": 1,
}

#: Operators charged as "special function unit" work by the cost model.
SPECIAL_OPS = frozenset({"/", "%"})

#: Opcodes that end a basic block.
TERMINATORS = (Opcode.BR, Opcode.CBR, Opcode.RET)


@dataclass(slots=True, unsafe_hash=True)
class Reg:
    """A virtual register (mutable slot) with a fixed type."""

    id: int
    type: JType
    name: str = ""

    def __str__(self) -> str:
        label = self.name or f"r{self.id}"
        return f"%{label}"


@dataclass(slots=True)
class Instr:
    """One IR instruction.

    Operand conventions by opcode:

    ========  =======================================================
    CONST     dst, value
    MOV       dst, src (Reg)
    BIN       dst, op, a, b
    UN        dst, op, a
    CAST      dst, src
    LOAD      dst, array, idx (tuple of Reg)
    STORE     array, idx (tuple of Reg), src
    CALL      dst, intrinsic, args (tuple of Reg)
    BR        target (block name)
    CBR       cond, then_target, else_target
    RET       (no operands)
    ========  =======================================================
    """

    op: Opcode
    dst: Optional[Reg] = None
    a: Optional[Reg] = None
    b: Optional[Reg] = None
    binop: str = ""
    value: object = None
    array: str = ""
    idx: tuple[Reg, ...] = ()
    args: tuple[Reg, ...] = ()
    intrinsic: str = ""
    target: str = ""
    else_target: str = ""

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.op is Opcode.CONST:
            return f"{self.dst} = const {self.value!r} : {self.dst.type.value}"
        if self.op is Opcode.MOV:
            return f"{self.dst} = mov {self.a}"
        if self.op is Opcode.BIN:
            return f"{self.dst} = {self.a} {self.binop} {self.b}"
        if self.op is Opcode.UN:
            return f"{self.dst} = {self.binop}{self.a}"
        if self.op is Opcode.CAST:
            return f"{self.dst} = cast {self.a} : {self.dst.type.value}"
        if self.op is Opcode.LOAD:
            idx = ", ".join(map(str, self.idx))
            return f"{self.dst} = load {self.array}[{idx}]"
        if self.op is Opcode.STORE:
            idx = ", ".join(map(str, self.idx))
            return f"store {self.array}[{idx}] = {self.a}"
        if self.op is Opcode.CALL:
            args = ", ".join(map(str, self.args))
            return f"{self.dst} = call {self.intrinsic}({args})"
        if self.op is Opcode.BR:
            return f"br {self.target}"
        if self.op is Opcode.CBR:
            return f"cbr {self.a} ? {self.target} : {self.else_target}"
        return "ret"


@dataclass
class Block:
    """A basic block: straight-line instructions ending in BR/CBR/RET."""

    name: str
    instrs: list[Instr] = field(default_factory=list)

    @property
    def terminator(self) -> Optional[Instr]:
        if self.instrs and self.instrs[-1].op in TERMINATORS:
            return self.instrs[-1]
        return None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        body = "\n".join(f"  {instr}" for instr in self.instrs)
        return f"{self.name}:\n{body}"


@dataclass(frozen=True)
class ArrayParam:
    """An array bound to the kernel by name."""

    name: str
    elem: JType
    dims: int


@dataclass(frozen=True)
class ScalarParam:
    """A scalar kernel parameter (loop-invariant live-in)."""

    name: str
    type: JType


@dataclass
class IRFunction:
    """A lowered loop body.

    The loop induction variable arrives in the dedicated ``index`` register
    (the paper: "the loop index will be remapped to the corresponding CUDA
    thread ID").  ``scalars`` are loop-invariant live-ins; ``arrays`` are
    the memory spaces the body touches.
    """

    name: str
    index: Reg
    scalars: list[ScalarParam]
    arrays: list[ArrayParam]
    blocks: list[Block]
    scalar_regs: dict[str, Reg] = field(default_factory=dict)
    num_regs: int = 0

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def block(self, name: str) -> Block:
        for blk in self.blocks:
            if blk.name == name:
                return blk
        raise KeyError(f"no block {name!r} in {self.name}")

    def array(self, name: str) -> ArrayParam:
        for arr in self.arrays:
            if arr.name == name:
                return arr
        raise KeyError(f"no array {name!r} in {self.name}")

    def validate(self) -> None:
        """Check structural invariants; raise AssertionError on breakage."""
        names = [b.name for b in self.blocks]
        assert len(set(names)) == len(names), "duplicate block names"
        known = set(names)
        for blk in self.blocks:
            term = blk.terminator
            assert term is not None, f"block {blk.name} lacks a terminator"
            for instr in blk.instrs[:-1]:
                assert instr.op not in TERMINATORS, (
                    f"terminator mid-block in {blk.name}"
                )
            if term.op is Opcode.BR:
                assert term.target in known
            elif term.op is Opcode.CBR:
                assert term.target in known and term.else_target in known

    @property
    def is_straightline(self) -> bool:
        """True when the body is a single block (vectorizable fast path)."""
        return len(self.blocks) == 1

    @cached_property
    def stored_arrays(self) -> frozenset[str]:
        """Names of the arrays the kernel writes (its rollback set)."""
        return frozenset(
            i.array for blk in self.blocks for i in blk.instrs
            if i.op is Opcode.STORE
        )

    def fingerprint(self) -> str:
        """Stable content identity: ``name:<sha256 prefix>``.

        Used as the kernel-cache key instead of ``id(fn)`` — two
        IRFunctions with the same fingerprint compile to interchangeable
        kernels, and a GC'd function can never alias a live one.  Cached
        on the instance; IRFunctions are not mutated after lowering.
        """
        fp = self.__dict__.get("_fingerprint")
        if fp is None:
            digest = hashlib.sha256(
                ir_fingerprint(self).encode()
            ).hexdigest()[:16]
            fp = self.__dict__["_fingerprint"] = f"{self.name}:{digest}"
        return fp

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        scalars = ", ".join(f"{s.type.value} {s.name}" for s in self.scalars)
        arrays = ", ".join(
            f"{a.elem.value}{'[]' * a.dims} {a.name}" for a in self.arrays
        )
        head = f"kernel {self.name}(index={self.index}; {scalars}; {arrays})"
        return head + "\n" + "\n".join(str(b) for b in self.blocks)


def ir_fingerprint(fn: IRFunction) -> str:
    """Canonical serialization of an IRFunction's content.

    Unlike ``str(fn)`` this includes register ids and types everywhere
    (two distinct registers sharing a source name print identically),
    so equal serializations imply behaviourally identical kernels.  Each
    register's label is formatted once per call.
    """
    labels: dict[int, str] = {id(None): "_"}
    get = labels.get

    def label(r: Reg) -> str:
        text = labels[id(r)] = f"r{r.id}:{r.type._value_}"
        return text

    def reg(r: Optional[Reg]) -> str:
        return get(id(r)) or label(r)

    parts = [
        f"fn {fn.name} nregs={fn.num_regs} index={reg(fn.index)}",
        "scalars " + ",".join(
            f"{s.name}:{s.type.value}:{reg(fn.scalar_regs.get(s.name))}"
            for s in fn.scalars
        ),
        "arrays " + ",".join(
            f"{a.name}:{a.elem.value}:{a.dims}" for a in fn.arrays
        ),
    ]
    append = parts.append
    for blk in fn.blocks:
        append(f"block {blk.name}")
        for i in blk.instrs:
            idx, args = i.idx, i.args
            append(
                f"{i.op._value_} dst={reg(i.dst)} a={reg(i.a)} b={reg(i.b)} "
                f"binop={i.binop} value={i.value!r} array={i.array} "
                f"idx=[{','.join(map(reg, idx)) if idx else ''}] "
                f"args=[{','.join(map(reg, args)) if args else ''}] "
                f"intr={i.intrinsic} tgt={i.target} else={i.else_target}"
            )
    return "\n".join(parts)
