"""IRBuilder: convenience layer for constructing :class:`IRFunction`s."""

from __future__ import annotations

from typing import Optional

from ..errors import LoweringError
from .instructions import (
    ArrayParam,
    Block,
    Instr,
    IRFunction,
    JType,
    Opcode,
    Reg,
    ScalarParam,
    TERMINATORS,
)


class IRBuilder:
    """Accumulates blocks and instructions with an insertion point."""

    def __init__(self, name: str):
        self.name = name
        self._next_reg = 0
        self._next_block = 0
        self.blocks: list[Block] = []
        self.current: Optional[Block] = None
        self.scalars: list[ScalarParam] = []
        self.arrays: list[ArrayParam] = []
        self.scalar_regs: dict[str, Reg] = {}
        self.index: Optional[Reg] = None

    # -- structure ------------------------------------------------------

    def new_reg(self, jtype: JType, name: str = "") -> Reg:
        reg = Reg(self._next_reg, jtype, name)
        self._next_reg += 1
        return reg

    def new_block(self, hint: str = "bb") -> Block:
        blk = Block(f"{hint}{self._next_block}")
        self._next_block += 1
        self.blocks.append(blk)
        return blk

    def set_insert(self, blk: Block) -> None:
        self.current = blk

    def declare_index(self, name: str, jtype: JType = JType.INT) -> Reg:
        if self.index is not None:
            raise LoweringError("index register already declared")
        self.index = self.new_reg(jtype, name)
        return self.index

    def declare_scalar(self, name: str, jtype: JType) -> Reg:
        if name in self.scalar_regs:
            raise LoweringError(f"scalar {name!r} declared twice")
        reg = self.new_reg(jtype, name)
        self.scalars.append(ScalarParam(name, jtype))
        self.scalar_regs[name] = reg
        return reg

    def declare_array(self, name: str, elem: JType, dims: int) -> None:
        if any(a.name == name for a in self.arrays):
            raise LoweringError(f"array {name!r} declared twice")
        self.arrays.append(ArrayParam(name, elem, dims))

    # -- emission ------------------------------------------------------

    def _emit(self, instr: Instr) -> None:
        blk = self.current
        if blk is None:
            raise LoweringError("no insertion block")
        if blk.instrs and blk.instrs[-1].op in TERMINATORS:
            raise LoweringError(
                f"emitting after terminator in block {blk.name}"
            )
        blk.instrs.append(instr)

    def const(self, value, jtype: JType) -> Reg:
        dst = self.new_reg(jtype)
        self._emit(Instr(Opcode.CONST, dst=dst, value=value))
        return dst

    def mov(self, dst: Reg, src: Reg) -> None:
        self._emit(Instr(Opcode.MOV, dst=dst, a=src))

    def bin(self, op: str, a: Reg, b: Reg, out_type: JType) -> Reg:
        dst = self.new_reg(out_type)
        self._emit(Instr(Opcode.BIN, dst=dst, binop=op, a=a, b=b))
        return dst

    def un(self, op: str, a: Reg, out_type: JType) -> Reg:
        dst = self.new_reg(out_type)
        self._emit(Instr(Opcode.UN, dst=dst, binop=op, a=a))
        return dst

    def cast(self, src: Reg, to: JType) -> Reg:
        if src.type is to:
            return src
        dst = self.new_reg(to)
        self._emit(Instr(Opcode.CAST, dst=dst, a=src))
        return dst

    def load(self, array: str, idx: tuple[Reg, ...], elem: JType) -> Reg:
        dst = self.new_reg(elem)
        self._emit(Instr(Opcode.LOAD, dst=dst, array=array, idx=idx))
        return dst

    def store(self, array: str, idx: tuple[Reg, ...], src: Reg) -> None:
        self._emit(Instr(Opcode.STORE, array=array, idx=idx, a=src))

    def call(self, intrinsic: str, args: tuple[Reg, ...], out_type: JType) -> Reg:
        dst = self.new_reg(out_type)
        self._emit(Instr(Opcode.CALL, dst=dst, intrinsic=intrinsic, args=args))
        return dst

    def br(self, target: Block) -> None:
        self._emit(Instr(Opcode.BR, target=target.name))

    def cbr(self, cond: Reg, then: Block, els: Block) -> None:
        self._emit(
            Instr(Opcode.CBR, a=cond, target=then.name, else_target=els.name)
        )

    def ret(self) -> None:
        self._emit(Instr(Opcode.RET))

    # -- finish -----------------------------------------------------------

    def finish(self) -> IRFunction:
        if self.index is None:
            raise LoweringError("kernel has no index register")
        fn = IRFunction(
            name=self.name,
            index=self.index,
            scalars=list(self.scalars),
            arrays=list(self.arrays),
            blocks=list(self.blocks),
            scalar_regs=dict(self.scalar_regs),
            num_regs=self._next_reg,
        )
        fn.validate()
        return fn
