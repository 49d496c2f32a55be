"""Lowering: annotated mini-Java loop bodies to kernel IR.

The translator calls :func:`lower_loop_body` for each annotated loop after
static analysis.  The loop induction variable becomes the kernel's index
register ("remapped to the corresponding CUDA thread ID"); loop-invariant
scalars become read-only parameters; arrays become named memory spaces;
``temp`` variables (declared inside the loop) become mutable register
slots.

Scalar live-outs (a write to a scalar declared outside the loop) are a
loop-carried dependence that the kernel model cannot express; lowering
rejects them, and static analysis routes such loops to sequential
execution instead.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..errors import LoweringError, TypeCheckError
from ..lang import ast_nodes as A
from .builder import IRBuilder
from .instructions import INTRINSICS, IRFunction, JType, Reg, jtype_of_prim
from .java_ops import default_value, wrap_int, wrap_long


def length_param(array: str, axis: int) -> str:
    """Synthetic scalar parameter name carrying ``array.length`` values."""
    return f"__len_{array}_{axis}"


def promote(a: JType, b: JType) -> JType:
    """Java binary numeric promotion."""
    if a is JType.DOUBLE or b is JType.DOUBLE:
        return JType.DOUBLE
    if a is JType.FLOAT or b is JType.FLOAT:
        return JType.FLOAT
    if a is JType.LONG or b is JType.LONG:
        return JType.LONG
    return JType.INT


class _Lowerer:
    def __init__(
        self,
        name: str,
        index_var: str,
        outer_types: Mapping[str, A.Type],
    ):
        self.b = IRBuilder(name)
        self.index_var = index_var
        self.outer_types = dict(outer_types)
        self.locals: dict[str, Reg] = {}  # temp vars -> mutable slots
        self.index_reg = self.b.declare_index(index_var)
        self._declared_arrays: set[str] = set()
        self._declared_scalars: set[str] = set()

    # -- variable resolution -------------------------------------------------

    def _array_type(self, name: str) -> Optional[A.ArrayType]:
        t = self.outer_types.get(name)
        return t if isinstance(t, A.ArrayType) else None

    def _ensure_array(self, name: str) -> A.ArrayType:
        at = self._array_type(name)
        if at is None:
            raise LoweringError(f"{name!r} is not a known array")
        if name not in self._declared_arrays:
            self.b.declare_array(name, jtype_of_prim(at.elem.name), at.dims)
            self._declared_arrays.add(name)
        return at

    def _scalar_reg(self, name: str, pos) -> Reg:
        if name == self.index_var:
            return self.index_reg
        if name in self.locals:
            return self.locals[name]
        t = self.outer_types.get(name)
        if t is None:
            raise LoweringError(f"unknown variable {name!r} at {pos}")
        if isinstance(t, A.ArrayType):
            raise LoweringError(f"array {name!r} used as a scalar at {pos}")
        if name not in self._declared_scalars:
            self.b.declare_scalar(name, jtype_of_prim(t.name))
            self._declared_scalars.add(name)
        return self.b.scalar_regs[name]

    def _length_reg(self, array: str, axis: int) -> Reg:
        at = self._ensure_array(array)
        if axis >= at.dims:
            raise LoweringError(f"{array!r} has no axis {axis} length")
        name = length_param(array, axis)
        if name not in self._declared_scalars:
            self.b.declare_scalar(name, JType.INT)
            self._declared_scalars.add(name)
        return self.b.scalar_regs[name]

    # -- expressions ---------------------------------------------------------

    def expr(self, e: A.Expr) -> Reg:
        lower = self._EXPR.get(e.__class__)
        if lower is None:
            raise LoweringError(f"cannot lower expression {type(e).__name__}")
        return lower(self, e)

    def _load(self, e: A.ArrayRef) -> Reg:
        at = self._ensure_array(e.base.name)
        if len(e.indices) != at.dims:
            raise TypeCheckError(
                f"{e.base.name!r} has {at.dims} dims, "
                f"indexed with {len(e.indices)} at {e.pos}"
            )
        idx = tuple(self._index(ix) for ix in e.indices)
        return self.b.load(e.base.name, idx, jtype_of_prim(at.elem.name))

    def _index(self, e: A.Expr) -> Reg:
        reg = self.expr(e)
        if reg.type is JType.BOOL or reg.type.is_floating:
            raise TypeCheckError(f"array index must be integral, got {reg.type}")
        return self.b.cast(reg, JType.INT) if reg.type is not JType.INT else reg

    def _unary(self, e: A.Unary) -> Reg:
        a = self.expr(e.operand)
        if e.op == "!":
            if a.type is not JType.BOOL:
                raise TypeCheckError(f"! requires boolean at {e.pos}")
            return self.b.un("!", a, JType.BOOL)
        if e.op == "~":
            if not a.type.is_integral or a.type is JType.BOOL:
                raise TypeCheckError(f"~ requires int/long at {e.pos}")
            return self.b.un("~", a, a.type)
        # unary minus: unary numeric promotion (int at minimum)
        out = a.type if a.type is not JType.BOOL else None
        if out is None:
            raise TypeCheckError(f"- requires a numeric operand at {e.pos}")
        return self.b.un("-", a, out)

    _CMP = frozenset(("<", "<=", ">", ">=", "==", "!="))
    _SHIFTS = frozenset(("<<", ">>", ">>>"))
    _BITWISE = frozenset(("&", "|", "^"))

    def _binary(self, e: A.Binary) -> Reg:
        if e.op in ("&&", "||"):
            return self._short_circuit(e)
        a = self.expr(e.left)
        c = self.expr(e.right)
        if e.op in self._CMP:
            if (a.type is JType.BOOL) != (c.type is JType.BOOL):
                raise TypeCheckError(f"comparing boolean to number at {e.pos}")
            if a.type is not JType.BOOL:
                common = promote(a.type, c.type)
                a = self.b.cast(a, common)
                c = self.b.cast(c, common)
            return self.b.bin(e.op, a, c, JType.BOOL)
        if e.op in self._SHIFTS:
            if not a.type.is_integral or a.type is JType.BOOL:
                raise TypeCheckError(f"shift of non-integer at {e.pos}")
            out = a.type
            c = self.b.cast(c, JType.INT)
            return self.b.bin(e.op, a, c, out)
        if e.op in self._BITWISE and (
            a.type is JType.BOOL or c.type is JType.BOOL
        ):
            if a.type is not JType.BOOL or c.type is not JType.BOOL:
                raise TypeCheckError(f"mixed boolean/integer {e.op} at {e.pos}")
            return self.b.bin(e.op, a, c, JType.BOOL)
        if a.type is JType.BOOL or c.type is JType.BOOL:
            raise TypeCheckError(f"arithmetic on boolean at {e.pos}")
        if e.op in self._BITWISE and (a.type.is_floating or c.type.is_floating):
            raise TypeCheckError(f"bitwise {e.op} on floating type at {e.pos}")
        common = promote(a.type, c.type)
        a = self.b.cast(a, common)
        c = self.b.cast(c, common)
        return self.b.bin(e.op, a, c, common)

    def _short_circuit(self, e: A.Binary) -> Reg:
        res = self.b.new_reg(JType.BOOL)
        a = self.expr(e.left)
        if a.type is not JType.BOOL:
            raise TypeCheckError(f"{e.op} requires booleans at {e.pos}")
        self.b.mov(res, a)
        rhs_blk = self.b.new_block("sc_rhs")
        end_blk = self.b.new_block("sc_end")
        if e.op == "&&":
            self.b.cbr(a, rhs_blk, end_blk)
        else:
            self.b.cbr(a, end_blk, rhs_blk)
        self.b.set_insert(rhs_blk)
        c = self.expr(e.right)
        if c.type is not JType.BOOL:
            raise TypeCheckError(f"{e.op} requires booleans at {e.pos}")
        self.b.mov(res, c)
        self.b.br(end_blk)
        self.b.set_insert(end_blk)
        return res

    def _ternary(self, e: A.Ternary) -> Reg:
        cond = self.expr(e.cond)
        if cond.type is not JType.BOOL:
            raise TypeCheckError(f"?: condition must be boolean at {e.pos}")
        then_blk = self.b.new_block("sel_t")
        else_blk = self.b.new_block("sel_f")
        end_blk = self.b.new_block("sel_end")
        self.b.cbr(cond, then_blk, else_blk)

        self.b.set_insert(then_blk)
        tv = self.expr(e.then)
        then_exit = self.b.current

        self.b.set_insert(else_blk)
        ov = self.expr(e.other)
        else_exit = self.b.current

        if tv.type is JType.BOOL or ov.type is JType.BOOL:
            if tv.type is not ov.type:
                raise TypeCheckError(f"?: branch type mismatch at {e.pos}")
            out = JType.BOOL
        else:
            out = promote(tv.type, ov.type)
        res = self.b.new_reg(out)

        self.b.set_insert(then_exit)
        self.b.mov(res, self.b.cast(tv, out))
        self.b.br(end_blk)
        self.b.set_insert(else_exit)
        self.b.mov(res, self.b.cast(ov, out))
        self.b.br(end_blk)
        self.b.set_insert(end_blk)
        return res

    def _call(self, e: A.Call) -> Reg:
        if e.name not in INTRINSICS:
            raise LoweringError(f"unknown intrinsic {e.name!r} at {e.pos}")
        if len(e.args) != INTRINSICS[e.name]:
            raise TypeCheckError(
                f"{e.name} expects {INTRINSICS[e.name]} args at {e.pos}"
            )
        args = tuple(self.expr(a) for a in e.args)
        for a in args:
            if a.type is JType.BOOL:
                raise TypeCheckError(f"boolean argument to {e.name} at {e.pos}")
        if e.name in ("Math.abs", "Math.min", "Math.max"):
            out = args[0].type
            for a in args[1:]:
                out = promote(out, a.type)
            args = tuple(self.b.cast(a, out) for a in args)
        else:
            out = JType.DOUBLE
            args = tuple(self.b.cast(a, JType.DOUBLE) for a in args)
        return self.b.call(e.name, args, out)

    # -- statements ------------------------------------------------------

    def stmt(self, s: A.Stmt) -> None:
        lower = self._STMT.get(s.__class__)
        if lower is None:
            raise LoweringError(f"cannot lower statement {type(s).__name__}")
        lower(self, s)

    def _block(self, s: A.Block) -> None:
        for sub in s.stmts:
            self.stmt(sub)

    def _inc_dec(self, s: A.IncDec) -> None:
        one = A.IntLit(s.pos, 1)
        op = "+" if s.op == "++" else "-"
        self._assign(A.Assign(s.pos, s.target, op, one))

    def _return(self, s: A.Return) -> None:
        raise LoweringError(f"return inside a parallel loop at {s.pos}")

    def _var_decl(self, s: A.VarDecl) -> None:
        if isinstance(s.type, A.ArrayType):
            raise LoweringError(
                f"array declaration inside a parallel loop at {s.pos}"
            )
        if s.name in self.locals or s.name in self.outer_types or (
            s.name == self.index_var
        ):
            raise LoweringError(f"shadowing declaration of {s.name!r} at {s.pos}")
        jt = jtype_of_prim(s.type.name)
        slot = self.b.new_reg(jt, s.name)
        self.locals[s.name] = slot
        if s.init is not None:
            value = self.expr(s.init)
            self.b.mov(slot, self._coerce(value, jt, s.pos))
        else:
            self.b.mov(slot, self.b.const(default_value(jt), jt))

    def _coerce(self, reg: Reg, to: JType, pos) -> Reg:
        """Assignment conversion: numeric casts allowed, boolean strict."""
        if reg.type is to:
            return reg
        if (reg.type is JType.BOOL) != (to is JType.BOOL):
            raise TypeCheckError(f"cannot assign {reg.type} to {to} at {pos}")
        return self.b.cast(reg, to)

    def _assign(self, s: A.Assign) -> None:
        if isinstance(s.target, A.VarRef):
            name = s.target.name
            if name == self.index_var:
                raise LoweringError(
                    f"assignment to the loop index {name!r} at {s.pos}"
                )
            if name not in self.locals:
                if name in self.outer_types and not isinstance(
                    self.outer_types[name], A.ArrayType
                ):
                    raise LoweringError(
                        f"scalar live-out {name!r} at {s.pos}: writes to "
                        f"outer scalars carry a loop dependence and cannot "
                        f"be parallelized"
                    )
                raise LoweringError(f"unknown variable {name!r} at {s.pos}")
            slot = self.locals[name]
            value = self._rhs_value(s, slot.type, current=lambda: slot)
            self.b.mov(slot, value)
            return
        # array element target
        target = s.target
        at = self._ensure_array(target.base.name)
        if len(target.indices) != at.dims:
            raise TypeCheckError(
                f"{target.base.name!r} has {at.dims} dims at {s.pos}"
            )
        idx = tuple(self._index(ix) for ix in target.indices)
        elem = jtype_of_prim(at.elem.name)
        value = self._rhs_value(
            s, elem, current=lambda: self.b.load(target.base.name, idx, elem)
        )
        self.b.store(target.base.name, idx, value)

    def _rhs_value(self, s: A.Assign, target_type: JType, current) -> Reg:
        """Value to store for ``target op= value`` (Java: x = (T)(x op v))."""
        value = self.expr(s.value)
        if not s.op:
            return self._coerce(value, target_type, s.pos)
        lhs = current()
        if lhs.type is JType.BOOL or value.type is JType.BOOL:
            if (
                s.op in self._BITWISE
                and lhs.type is JType.BOOL
                and value.type is JType.BOOL
            ):
                return self.b.bin(s.op, lhs, value, JType.BOOL)
            raise TypeCheckError(f"boolean in compound assignment at {s.pos}")
        if s.op in self._SHIFTS:
            count = self.b.cast(value, JType.INT)
            result = self.b.bin(s.op, lhs, count, lhs.type)
        else:
            common = promote(lhs.type, value.type)
            a = self.b.cast(lhs, common)
            c = self.b.cast(value, common)
            result = self.b.bin(s.op, a, c, common)
        return self.b.cast(result, target_type)

    def _if(self, s: A.If) -> None:
        cond = self.expr(s.cond)
        if cond.type is not JType.BOOL:
            raise TypeCheckError(f"if condition must be boolean at {s.pos}")
        then_blk = self.b.new_block("if_t")
        else_blk = self.b.new_block("if_f") if s.els is not None else None
        end_blk = self.b.new_block("if_end")
        self.b.cbr(cond, then_blk, else_blk or end_blk)
        self.b.set_insert(then_blk)
        self.stmt(s.then)
        if self.b.current.terminator is None:
            self.b.br(end_blk)
        if else_blk is not None:
            self.b.set_insert(else_blk)
            self.stmt(s.els)
            if self.b.current.terminator is None:
                self.b.br(end_blk)
        self.b.set_insert(end_blk)

    def _while(self, s: A.While) -> None:
        head = self.b.new_block("wh_head")
        body = self.b.new_block("wh_body")
        end = self.b.new_block("wh_end")
        self.b.br(head)
        self.b.set_insert(head)
        cond = self.expr(s.cond)
        if cond.type is not JType.BOOL:
            raise TypeCheckError(f"while condition must be boolean at {s.pos}")
        self.b.cbr(cond, body, end)
        self.b.set_insert(body)
        self.stmt(s.body)
        if self.b.current.terminator is None:
            self.b.br(head)
        self.b.set_insert(end)

    def _inner_for(self, s: A.For) -> None:
        if s.annotation is not None:
            raise LoweringError(
                f"nested acc annotation at {s.pos} is not supported; "
                f"annotate only the outer loop"
            )
        if s.init is not None:
            self.stmt(s.init)
        head = self.b.new_block("for_head")
        body = self.b.new_block("for_body")
        end = self.b.new_block("for_end")
        self.b.br(head)
        self.b.set_insert(head)
        if s.cond is not None:
            cond = self.expr(s.cond)
            if cond.type is not JType.BOOL:
                raise TypeCheckError(f"for condition must be boolean at {s.pos}")
            self.b.cbr(cond, body, end)
        else:
            self.b.br(body)
        self.b.set_insert(body)
        self.stmt(s.body)
        if s.update is not None:
            self.stmt(s.update)
        if self.b.current.terminator is None:
            self.b.br(head)
        self.b.set_insert(end)

    #: the lowering of each AST class, by exact type
    _EXPR = {
        A.IntLit: lambda self, e: self.b.const(wrap_int(e.value), JType.INT),
        A.LongLit: lambda self, e: self.b.const(
            wrap_long(e.value), JType.LONG
        ),
        A.DoubleLit: lambda self, e: self.b.const(e.value, JType.DOUBLE),
        A.FloatLit: lambda self, e: self.b.const(e.value, JType.FLOAT),
        A.BoolLit: lambda self, e: self.b.const(e.value, JType.BOOL),
        A.VarRef: lambda self, e: self._scalar_reg(e.name, e.pos),
        A.Length: lambda self, e: self._length_reg(e.array.name, e.axis),
        A.ArrayRef: _load,
        A.Cast: lambda self, e: self.b.cast(
            self.expr(e.operand), jtype_of_prim(e.target.name)
        ),
        A.Unary: _unary,
        A.Binary: _binary,
        A.Ternary: _ternary,
        A.Call: _call,
    }
    _STMT = {
        A.Block: _block,
        A.VarDecl: _var_decl,
        A.Assign: _assign,
        A.IncDec: _inc_dec,
        A.ExprStmt: lambda self, s: self.expr(s.expr),
        A.If: _if,
        A.While: _while,
        A.For: _inner_for,
        A.Return: _return,
    }


def lower_loop_body(
    loop: A.For,
    outer_types: Mapping[str, A.Type],
    index_var: str,
    name: str = "kernel",
) -> IRFunction:
    """Lower the body of an annotated loop to an :class:`IRFunction`.

    ``outer_types`` maps every variable declared outside the loop (method
    parameters and earlier locals) to its type.  ``index_var`` is the loop
    induction variable; its per-iteration value is the kernel index.
    """
    lw = _Lowerer(name, index_var, outer_types)
    entry = lw.b.new_block("entry")
    lw.b.set_insert(entry)
    lw.stmt(loop.body)
    if lw.b.current.terminator is None:
        lw.b.ret()
    return lw.b.finish()
