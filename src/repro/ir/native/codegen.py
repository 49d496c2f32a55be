"""Type-specialized Python codegen for IR kernels (the "src" tier).

An :class:`IRFunction` is lowered to one plain Python function per
memory-backend flavor:

* registers become Python locals (``r{id}``),
* the CFG becomes a block-dispatch loop (``_blk`` integer + ``if/elif``
  chain; CBR lowers to a conditional expression),
* Java numeric semantics are the inline ``expr`` forms of the
  :mod:`repro.ir.java_ops` table (the interpreter runs the same text
  compiled as its ``scalar`` forms); the helpers they call and the
  intrinsics are pre-bound as globals,
* loads/stores inline the bounds check against hoisted shapes and fall
  back to :meth:`ArrayStorage.flat` on failure so every error message is
  byte-identical to the interpreter's,
* dynamic work counters are folded statically per basic block and the
  fuel check runs after every block — including RET — exactly like
  :class:`repro.ir.interpreter.CompiledKernel`.

Counter fidelity: counts are exact for every execution that completes,
runs out of fuel, or is cut short at an index boundary (worker faults).
The one tolerated divergence is an execution aborted *mid-block* by a
``MemoryFault``/``ZeroDivisionError``: the interpreter has counted the
instructions before the faulting one, the generated code folds the block
at its end and therefore has not.  Such counts are never consumed — the
launch that raised them aborts.

The generated function is stateless and reentrant: all mutable state
(counters, per-lane totals, speculative buffers) lives in caller-owned
arguments or per-invocation locals, so one compiled kernel is safely
shared process-wide across threads.

Flavors mirror the interpreter's memory backends:

``direct``    reads/writes go straight to storage (DirectBackend).
``buffered``  per-lane write buffers + read/write logs returned as a
              ``{index: LaneSpecState}`` dict (SpeculativeBackend).
``tracing``   direct writes plus per-lane ordered address traces
              returned as ``{index: [AccessRecord]}`` (TracingBackend).
"""

from __future__ import annotations

import linecache

from ...errors import JaponicaError
from .. import java_ops
from ..instructions import IRFunction, Opcode
from ..interpreter import (
    AccessRecord,
    C_TOTAL,
    DEFAULT_FUEL,
    FuelExhausted,
    LaneSpecState,
    N_COUNTERS,
    category,
)

FLAVORS = ("direct", "buffered", "tracing")

#: Names injected into every generated function's globals.
_BASE_GLOBALS = {
    "_JErr": JaponicaError,
    "_Fuel": FuelExhausted,
    "_AR": AccessRecord,
    "_LSS": LaneSpecState,
    "_NAN": float("nan"),
    **java_ops.SRC_GLOBALS,
}


class _Emitter:
    """Accumulates indented source lines."""

    def __init__(self):
        self.lines: list[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _KernelPlan:
    """Static facts the emitter needs: register roles, array usage."""

    def __init__(self, fn: IRFunction):
        self.fn = fn
        reads: set[int] = set()
        writes: set[int] = set()
        arrays_nidx: dict[str, set[int]] = {}
        arrays_loaded: set[str] = set()
        arrays_stored: set[str] = set()
        intrinsics: list[str] = []
        consts: list[object] = []
        for blk in fn.blocks:
            for instr in blk.instrs:
                if instr.dst is not None:
                    writes.add(instr.dst.id)
                for r in (instr.a, instr.b):
                    if r is not None:
                        reads.add(r.id)
                for r in instr.idx:
                    reads.add(r.id)
                for r in instr.args:
                    reads.add(r.id)
                if instr.op in (Opcode.LOAD, Opcode.STORE):
                    arrays_nidx.setdefault(instr.array, set()).add(
                        len(instr.idx)
                    )
                    if instr.op is Opcode.LOAD:
                        arrays_loaded.add(instr.array)
                    else:
                        arrays_stored.add(instr.array)
                if instr.op is Opcode.CALL and instr.intrinsic not in intrinsics:
                    intrinsics.append(instr.intrinsic)
                if instr.op is Opcode.CONST:
                    consts.append(instr.value)
        self.reads = reads
        self.writes = writes
        self.arrays = list(arrays_nidx)  # order of first use
        self.array_var = {name: f"_a{k}" for k, name in enumerate(self.arrays)}
        self.arrays_nidx = arrays_nidx
        self.arrays_loaded = arrays_loaded
        self.arrays_stored = arrays_stored
        self.intrinsics = intrinsics
        self.intr_var = {name: f"_in{k}" for k, name in enumerate(intrinsics)}
        self.consts = consts
        self.scalar_var = {
            p.name: f"_s{k}" for k, p in enumerate(fn.scalars)
        }
        self.scalar_reg = {
            p.name: fn.scalar_regs[p.name].id for p in fn.scalars
        }


def generate(
    fn: IRFunction, flavor: str = "direct", fuel: int = DEFAULT_FUEL
) -> tuple[str, dict]:
    """Generate (source, globals) for one kernel/flavor pair."""
    if flavor not in FLAVORS:
        raise JaponicaError(f"unknown native kernel flavor {flavor!r}")
    plan = _KernelPlan(fn)
    e = _Emitter()
    g = dict(_BASE_GLOBALS)
    const_var: dict[int, str] = {}
    for k, value in enumerate(plan.consts):
        g[f"_K{k}"] = value
    for name, var in plan.intr_var.items():
        g[var] = java_ops.INTRINSIC_FNS[name]

    writes_mem = flavor in ("direct", "tracing")
    e.emit(0, "def _kernel(_indices, _env, _storage, _raw, _per_lane):")
    e.emit(1, "_arrays = _storage.arrays")
    e.emit(1, "_flat = _storage.flat")
    # -- array hoists ---------------------------------------------------
    for name in plan.arrays:
        av = plan.array_var[name]
        e.emit(1, f"{av} = _arrays.get({name!r})")
        if 1 in plan.arrays_nidx[name]:
            e.emit(
                1,
                f"{av}_e0 = {av}.shape[0] "
                f"if {av} is not None and {av}.ndim == 1 else -1",
            )
        if 2 in plan.arrays_nidx[name]:
            e.emit(1, f"if {av} is not None and {av}.ndim == 2:")
            e.emit(2, f"{av}_f0, {av}_f1 = {av}.shape")
            e.emit(1, "else:")
            e.emit(2, f"{av}_f0 = {av}_f1 = -1")
        if name in plan.arrays_loaded:
            e.emit(1, f"{av}_item = {av}.item if {av} is not None else None")
        if name in plan.arrays_stored and writes_mem:
            e.emit(1, f"{av}_fl = {av}.flat if {av} is not None else None")
    # -- scalar binds (interpreter order and error message) -------------
    for p in fn.scalars:
        sv = plan.scalar_var[p.name]
        msg = f"kernel {fn.name!r} missing scalar {p.name!r}"
        e.emit(1, "try:")
        e.emit(2, f"{sv} = _env[{p.name!r}]")
        e.emit(1, "except KeyError:")
        e.emit(2, f"raise _JErr({msg!r}) from None")
    # scalar registers never written inside the kernel bind once
    hoisted_scalars = []
    looped_scalars = []
    for p in fn.scalars:
        rid = plan.scalar_reg[p.name]
        (looped_scalars if rid in plan.writes else hoisted_scalars).append(p)
    for p in hoisted_scalars:
        e.emit(1, f"r{plan.scalar_reg[p.name]} = {plan.scalar_var[p.name]}")
    # registers that are read anywhere start each index as None, exactly
    # like the interpreter's fresh regs list (scalar and index registers
    # are bound explicitly, so they stay out of the None chain)
    scalar_ids = set(plan.scalar_reg.values())
    init_ids = sorted(plan.reads - scalar_ids - {fn.index.id})
    e.emit(1, "_c0 = _c1 = _c2 = _c3 = _c4 = _c5 = _c6 = _c7 = 0")
    e.emit(1, "_t = 0")
    if flavor == "buffered":
        e.emit(1, "_lanes = {}")
    elif flavor == "tracing":
        e.emit(1, "_traces = {}")
    e.emit(1, "try:")
    e.emit(2, "for _i in _indices:")
    e.emit(3, f"r{fn.index.id} = _i")
    for p in looped_scalars:
        e.emit(3, f"r{plan.scalar_reg[p.name]} = {plan.scalar_var[p.name]}")
    if init_ids:
        chain = " = ".join(f"r{rid}" for rid in init_ids)
        e.emit(3, f"{chain} = None")
    if flavor == "buffered":
        e.emit(3, "_buf = {}")
        e.emit(3, "_reads = []")
        e.emit(3, "_writes = []")
        e.emit(3, "_op = 0")
    elif flavor == "tracing":
        e.emit(3, "_tr = []")
        e.emit(3, "_op = 0")
    e.emit(3, "_t = 0")
    e.emit(3, "_blk = 0")
    e.emit(3, "while True:")
    # -- blocks ---------------------------------------------------------
    const_iter = iter(range(len(plan.consts)))
    block_ids = {blk.name: k for k, blk in enumerate(fn.blocks)}
    for bid, blk in enumerate(fn.blocks):
        kw = "if" if bid == 0 else "elif"
        e.emit(4, f"{kw} _blk == {bid}:  # {blk.name}")
        body_indent = 5
        fold = [0] * N_COUNTERS
        for instr in blk.instrs:
            cat = category(instr)
            if cat is not None:
                fold[cat] += 1
            fold[C_TOTAL] += 1
        for instr in blk.instrs[:-1]:
            _emit_instr(
                e, body_indent, instr, plan, flavor, const_iter, writes_mem
            )
        # fold the block's statically-known work before the terminator
        for cat in range(N_COUNTERS - 1):
            if fold[cat]:
                e.emit(body_indent, f"_c{cat} += {fold[cat]}")
        e.emit(body_indent, f"_t += {fold[C_TOTAL]}")
        term = blk.instrs[-1]
        if term.op is Opcode.BR:
            e.emit(body_indent, f"_blk = {block_ids[term.target]}")
        elif term.op is Opcode.CBR:
            t_id = block_ids[term.target]
            f_id = block_ids[term.else_target]
            e.emit(
                body_indent,
                f"_blk = {t_id} if r{term.a.id} else {f_id}",
            )
        else:  # RET
            e.emit(body_indent, "_blk = -1")
    # the interpreter checks fuel after *every* terminator, RET included
    fuel_msg = f"kernel {fn.name!r} exceeded {fuel} instructions at index "
    e.emit(4, f"if _t > {fuel}:")
    e.emit(5, f"raise _Fuel({fuel_msg!r} + str(_i))")
    e.emit(4, "if _blk < 0:")
    e.emit(5, "break")
    # -- index epilogue -------------------------------------------------
    e.emit(3, "_c7 += _t")
    e.emit(3, "_per_lane.append(_t)")
    e.emit(3, "_t = 0")
    if flavor == "buffered":
        e.emit(3, "_lanes[_i] = _LSS(_buf, _reads, _writes, _op)")
    elif flavor == "tracing":
        e.emit(3, "_traces[_i] = _tr")
    e.emit(1, "finally:")
    for k in range(N_COUNTERS - 1):
        e.emit(2, f"_raw[{k}] += _c{k}")
    e.emit(2, "_raw[7] += _c7 + _t")
    if flavor == "buffered":
        e.emit(1, "return _lanes")
    elif flavor == "tracing":
        e.emit(1, "return _traces")
    else:
        e.emit(1, "return None")
    return e.source(), g


def _emit_flat(
    e: _Emitter,
    indent: int,
    instr,
    plan: _KernelPlan,
    out_var: str,
) -> None:
    """Emit the bounds check + flat-address computation into ``out_var``.

    The fast path reproduces :meth:`ArrayStorage.flat` for the
    bound-and-shape-matching case; every other case (unbound array, dim
    mismatch, out of bounds) falls back to the real ``storage.flat``,
    which raises the byte-identical MemoryFault.
    """
    av = plan.array_var[instr.array]
    idx = [f"r{r.id}" for r in instr.idx]
    if len(idx) == 1:
        e.emit(indent, f"_x = {idx[0]}")
        e.emit(indent, f"if 0 <= _x < {av}_e0:")
        e.emit(indent + 1, f"{out_var} = _x")
        e.emit(indent, "else:")
        e.emit(indent + 1, f"{out_var} = _flat({instr.array!r}, (_x,))")
    else:
        e.emit(indent, f"_x = {idx[0]}")
        e.emit(indent, f"_y = {idx[1]}")
        e.emit(indent, f"if 0 <= _x < {av}_f0 and 0 <= _y < {av}_f1:")
        e.emit(indent + 1, f"{out_var} = _x * {av}_f1 + _y")
        e.emit(indent, "else:")
        e.emit(indent + 1, f"{out_var} = _flat({instr.array!r}, (_x, _y))")


def _value_expr(instr, plan: _KernelPlan) -> str:
    """The java_ops table's inline expression for a value instruction."""
    op = instr.op
    if op is Opcode.CALL:
        args = ", ".join(f"r{r.id}" for r in instr.args)
        convert = java_ops.call_rule(instr.intrinsic, instr.dst.type)[2]
        return convert.emit(f"{plan.intr_var[instr.intrinsic]}({args})")
    a = f"r{instr.a.id}"
    if op is Opcode.BIN:
        rule = java_ops.bin_rule(instr.binop, instr.a.type)
        return rule.emit(a, f"r{instr.b.id}")
    if op is Opcode.UN:
        return java_ops.un_rule(instr.binop, instr.dst.type).emit(a)
    return java_ops.CAST_RULES[instr.a.type, instr.dst.type].emit(a)


def _emit_instr(
    e: _Emitter,
    indent: int,
    instr,
    plan: _KernelPlan,
    flavor: str,
    const_iter,
    writes_mem: bool,
) -> None:
    op = instr.op
    if op is Opcode.CONST:
        e.emit(indent, f"r{instr.dst.id} = _K{next(const_iter)}")
        return
    if op is Opcode.MOV:
        e.emit(indent, f"r{instr.dst.id} = r{instr.a.id}")
        return
    if op in (Opcode.BIN, Opcode.UN, Opcode.CAST, Opcode.CALL):
        e.emit(indent, f"r{instr.dst.id} = {_value_expr(instr, plan)}")
        return
    av = plan.array_var[instr.array]
    if op is Opcode.LOAD:
        dst = f"r{instr.dst.id}"
        if flavor == "direct":
            _emit_flat(e, indent, instr, plan, "_f")
            e.emit(indent, f"{dst} = {av}_item(_f)")
        elif flavor == "buffered":
            _emit_flat(e, indent, instr, plan, "_f")
            e.emit(indent, f"_k = ({instr.array!r}, _f)")
            e.emit(indent, "if _k in _buf:")
            e.emit(indent + 1, f"{dst} = _buf[_k]")
            e.emit(indent, "else:")
            e.emit(
                indent + 1,
                f"_reads.append(_AR(_op, 'R', {instr.array!r}, _f))",
            )
            e.emit(indent + 1, f"{dst} = {av}_item(_f)")
            e.emit(indent, "_op += 1")
        else:  # tracing
            _emit_flat(e, indent, instr, plan, "_f")
            e.emit(indent, f"_tr.append(_AR(_op, 'R', {instr.array!r}, _f))")
            e.emit(indent, "_op += 1")
            e.emit(indent, f"{dst} = {av}_item(_f)")
        return
    if op is Opcode.STORE:
        src = f"r{instr.a.id}"
        _emit_flat(e, indent, instr, plan, "_f")
        if flavor == "direct":
            e.emit(indent, f"{av}_fl[_f] = {src}")
        elif flavor == "buffered":
            e.emit(
                indent, f"_writes.append(_AR(_op, 'W', {instr.array!r}, _f))"
            )
            e.emit(indent, "_op += 1")
            e.emit(indent, f"_buf[({instr.array!r}, _f)] = {src}")
        else:  # tracing
            e.emit(indent, f"_tr.append(_AR(_op, 'W', {instr.array!r}, _f))")
            e.emit(indent, "_op += 1")
            e.emit(indent, f"{av}_fl[_f] = {src}")
        return
    raise JaponicaError(f"non-terminator expected, got {op}")


def generate_source(
    fn: IRFunction, flavor: str = "direct", fuel: int = DEFAULT_FUEL
) -> str:
    """The generated Python source alone (diagnostics, tests, docs)."""
    return generate(fn, flavor, fuel)[0]


class NativeKernel:
    """One compiled (fingerprint, flavor) pair of the "src" tier.

    ``run`` executes every index in order, accumulating raw work
    counters into the caller-owned ``raw`` list (survives exceptions via
    ``try/finally`` in the generated code) and appending each index's
    instruction total to ``per_lane``.  Returns the flavor's auxiliary
    structure: ``None`` (direct), lanes dict (buffered), traces dict
    (tracing).
    """

    __slots__ = ("fn", "flavor", "fuel", "source", "_run")

    tier = "src"

    def __init__(
        self, fn: IRFunction, flavor: str = "direct", fuel: int = DEFAULT_FUEL
    ):
        self.fn = fn
        self.flavor = flavor
        self.fuel = fuel
        source, ns = generate(fn, flavor, fuel)
        self.source = source
        filename = f"<native:{fn.fingerprint()}:{flavor}>"
        code = compile(source, filename, "exec")
        exec(code, ns)
        self._run = ns["_kernel"]
        # make generated lines visible in tracebacks
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename,
        )

    def run(self, indices, scalar_env, storage, raw, per_lane):
        return self._run(indices, scalar_env, storage, raw, per_lane)
