"""Type-specialized Python codegen for IR kernels (the "src" tier).

An :class:`IRFunction` is lowered to one plain Python function per
memory-backend flavor:

* registers become Python locals (``r{id}``),
* the CFG becomes structured Python with the shape of the source (see
  :class:`_Cfg`): a natural loop becomes ``while True``, a branch an
  ``if``/``else`` that rejoins at its immediate post-dominator, and an
  edge to the enclosing loop's header or exit ``continue`` or ``break``.
  A CFG that is not such a nest, or that nests deeper than CPython
  compiles (20 static blocks, 100 indentation levels), fails to compile
  and its kernel runs on the interpreter,
* Java numeric semantics are the inline ``expr`` forms of the
  :mod:`repro.ir.java_ops` table (the interpreter runs the same text
  compiled as its ``scalar`` forms); the helpers they call and the
  intrinsics are pre-bound as globals,
* loads/stores inline the bounds check against hoisted shapes and fall
  back to :meth:`ArrayStorage.flat` on failure so every error message is
  byte-identical to the interpreter's; a load indexes a flat view of
  its array hoisted once per launch (:func:`_load_view`), a store
  assigns through ``ndarray.flat``,
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
``buffered``  SpeculativeBackend's SE log written as columns: per lane,
              one ``{flat: value}`` write buffer per stored array, and
              read/write records appended to ``(pos, op, array, flat)``
              column lists; returned as a :class:`ColumnarLanes`
              (:meth:`ColumnarLanes.from_logs`).
``tracing``   direct writes plus per-lane ordered address traces
              returned as ``{index: [AccessRecord]}`` (TracingBackend).
"""

from __future__ import annotations

import linecache

from ...errors import JaponicaError
from .. import java_ops
from ..columnar import ColumnarLanes
from ..instructions import IRFunction, Opcode
from ..interpreter import (
    AccessRecord,
    C_TOTAL,
    DEFAULT_FUEL,
    FuelExhausted,
    N_COUNTERS,
    category,
)

FLAVORS = ("direct", "buffered", "tracing")


class _ItemLoads:
    """``arr.item`` behind ``[]``: the loads of an array that is not
    C-contiguous (a strided view, a Fortran-ordered array)."""

    __slots__ = ("_item",)

    def __init__(self, arr):
        self._item = arr.item

    def __getitem__(self, flat: int):
        return self._item(flat)


def _load_view(arr):
    """What a launch's loads of ``arr`` index: ``view[f]`` is
    ``arr.item(f)``, the same Python type and value.

    A C-contiguous array gets a ``memoryview`` of its flat reshape, O(1)
    to make and live, so a direct launch reads its own stores, also
    those through another view of the same buffer.  ``None`` is an
    unbound array, whose accesses fault before they load.
    """
    if arr is None:
        return None
    if arr.flags.c_contiguous:
        return memoryview(arr.reshape(-1))
    return _ItemLoads(arr)


#: Names injected into every generated function's globals.
_BASE_GLOBALS = {
    "_JErr": JaponicaError,
    "_Fuel": FuelExhausted,
    "_AR": AccessRecord,
    "_Cols": ColumnarLanes.from_logs,
    "_lview": _load_view,
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
        const_var: dict[int, str] = {}
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
                    const_var[id(instr)] = f"_K{len(consts)}"
                    consts.append(instr.value)
        self.reads = reads
        self.writes = writes
        self.arrays = list(arrays_nidx)  # order of first use
        self.array_var = {name: f"_a{k}" for k, name in enumerate(self.arrays)}
        self.array_code = {name: k for k, name in enumerate(self.arrays)}
        self.arrays_nidx = arrays_nidx
        self.arrays_loaded = arrays_loaded
        self.arrays_stored = arrays_stored
        self.intrinsics = intrinsics
        self.intr_var = {name: f"_in{k}" for k, name in enumerate(intrinsics)}
        self.consts = consts
        self.const_var = const_var
        self.scalar_var = {
            p.name: f"_s{k}" for k, p in enumerate(fn.scalars)
        }
        self.scalar_reg = {
            p.name: fn.scalar_regs[p.name].id for p in fn.scalars
        }


def _unstructured(fn: IRFunction, why: str) -> JaponicaError:
    return JaponicaError(f"kernel {fn.name!r} is not structured: {why}")


class _Cfg:
    """Loop nest and branch joins of a kernel's structured CFG.

    Every CFG that lowering produces is a nest of natural loops with one
    exit target each and of branches that rejoin (no ``break``,
    ``continue`` or early ``return`` exists in the language).  Over the
    blocks reachable from the entry this computes, in time linear in the
    blocks for such nests:

    * a depth-first search's preorder, subtree ends, postorder and back
      edges (an edge to a block on the search stack);
    * the natural loop of each back-edge target, innermost first, with
      union-find collapsing of inner loops: ``loop_of[b]`` is the
      innermost loop header containing ``b`` (a header contains
      itself), ``parent[h]`` the header enclosing loop ``h``, and
      ``exit[h]`` its one exit target (``None``: the loop never exits);
    * immediate post-dominators in the acyclic graph where an edge that
      re-enters a loop goes to that loop's exit instead, with ``X``
      standing for the virtual exit that RET and never-exiting loops
      flow to: ``ipdom[b]`` is where the arms of a branch in ``b``
      rejoin, which lies outside ``b``'s loop when the arms only leave
      through ``continue``, ``break`` or RET.

    A side entry into a loop or a loop with two exit targets raises.
    """

    def __init__(self, fn: IRFunction):
        blocks = fn.blocks
        n = len(blocks)
        ids = {blk.name: k for k, blk in enumerate(blocks)}
        succ: list[tuple[int, ...]] = []
        for blk in blocks:
            term = blk.instrs[-1]
            if term.op is Opcode.BR:
                succ.append((ids[term.target],))
            elif term.op is Opcode.CBR:
                t, f = ids[term.target], ids[term.else_target]
                succ.append((t,) if t == f else (t, f))
            else:
                succ.append(())
        self.succ = succ

        pre = [-1] * n
        end = [0] * n
        on_stack = [False] * n
        post: list[int] = []
        back: set[tuple[int, int]] = set()
        pre[0], on_stack[0], count = 0, True, 1
        stack = [(0, iter(succ[0]))]
        while stack:
            u, it = stack[-1]
            for v in it:
                if pre[v] < 0:
                    pre[v], on_stack[v] = count, True
                    count += 1
                    stack.append((v, iter(succ[v])))
                    break
                if on_stack[v]:
                    back.add((u, v))
            else:
                stack.pop()
                on_stack[u] = False
                end[u] = count - 1
                post.append(u)

        preds: list[list[int]] = [[] for _ in range(n)]
        for u in post:
            for v in succ[u]:
                preds[v].append(u)
        latches: dict[int, list[int]] = {}
        for u, v in back:
            latches.setdefault(v, []).append(u)
        loop_of = [-1] * n
        for h in latches:
            loop_of[h] = h
        parent: dict[int, int] = {}
        rep = list(range(n))

        def find(x: int) -> int:
            while rep[x] != x:
                rep[x] = rep[rep[x]]
                x = rep[x]
            return x

        for h in sorted(latches, key=pre.__getitem__, reverse=True):
            parent[h] = -1
            body: list[int] = []
            seen = {h}
            work = [find(u) for u in latches[h]]
            while work:
                x = work.pop()
                if x in seen:
                    continue
                if not pre[h] < pre[x] <= end[h]:
                    raise _unstructured(
                        fn, f"loop {blocks[h].name!r} has a side entry"
                    )
                seen.add(x)
                body.append(x)
                work.extend(find(p) for p in preds[x])
            for x in body:
                rep[x] = h
                if loop_of[x] == x:
                    parent[x] = h
                else:
                    loop_of[x] = h
        depth: dict[int, int] = {}
        for h in sorted(latches, key=pre.__getitem__):
            depth[h] = depth[parent[h]] + 1 if parent[h] >= 0 else 0
        self.loop_of, self.parent, self._depth = loop_of, parent, depth

        exits: dict[int, set[int]] = {h: set() for h in latches}
        for u in post:
            inner = loop_of[u]
            for v in succ[u]:
                if loop_of[v] == inner:
                    continue
                h = inner
                while h >= 0 and not self.in_loop(v, h):
                    exits[h].add(v)
                    h = parent[h]
        self.exit: dict[int, object] = {}
        for h, targets in exits.items():
            if len(targets) > 1:
                raise _unstructured(
                    fn, f"loop {blocks[h].name!r} has {len(targets)} exits"
                )
            self.exit[h] = targets.pop() if targets else None

        # the acyclic graph the joins are taken in: an edge that
        # re-enters a loop containing its source (a back edge, or an
        # inner loop's exit onto an outer header) goes where that loop
        # goes once it finishes, its exit; a loop that never exits, and
        # RET, flow to the virtual exit X
        self.X = x_node = n
        fwd: dict[int, list[int]] = {}
        rpreds: dict[int, list[int]] = {u: [] for u in post}
        for u in post:
            targets: list[int] = []
            for v in succ[u]:
                while v != x_node and v in self.exit and self.in_loop(u, v):
                    v = self.exit[v]
                    if v is None:
                        v = x_node
                if v not in targets:
                    targets.append(v)
                    if v != x_node:
                        rpreds[v].append(u)
            fwd[u] = targets
        ipdom = [x_node] * (n + 1)
        pd_depth = [0] * (n + 1)
        waiting = {u: sum(v != x_node for v in fwd[u]) for u in post}
        ready = [u for u in post if not waiting[u]]
        settled = 0
        while ready:  # sinks first: every successor is settled before
            u = ready.pop()
            settled += 1
            targets = fwd[u]
            m = targets[0] if targets else x_node
            for v in targets[1:]:
                while m != v:
                    while pd_depth[m] > pd_depth[v]:
                        m = ipdom[m]
                    while pd_depth[v] > pd_depth[m]:
                        v = ipdom[v]
                    if m != v:
                        m, v = ipdom[m], ipdom[v]
            ipdom[u] = m
            pd_depth[u] = pd_depth[m] + 1
            for p in rpreds[u]:
                waiting[p] -= 1
                if not waiting[p]:
                    ready.append(p)
        if settled != len(post):
            raise _unstructured(fn, "loops do not nest")
        self.ipdom = ipdom

    def in_loop(self, b: int, h: int) -> bool:
        """Whether block ``b`` lies in the loop headed by ``h``."""
        c, depth, parent = self.loop_of[b], self._depth, self.parent
        while c >= 0 and depth[c] > depth[h]:
            c = parent[c]
        return c == h

    def jump(self, b: int, loop: int):
        """``continue``/``break`` if ``b`` is ``loop``'s header/exit."""
        if loop < 0:
            return None
        if b == loop:
            return "continue"
        if b == self.exit[loop]:
            return "break"
        return None


class _Lowering:
    """Emits the structured lane body of one kernel/flavor pair."""

    def __init__(self, fn, plan, flavor, e, fuel):
        self.fn, self.plan, self.flavor, self.e = fn, plan, flavor, e
        self.cfg = _Cfg(fn)
        self.done = [False] * len(fn.blocks)
        msg = f"kernel {fn.name!r} exceeded {fuel} instructions at index "
        self.fuel_check = (
            f"if _t > {fuel}:", f"raise _Fuel({msg!r} + str(_i))"
        )

    def region(self, b, follow, loop: int, ind: int) -> None:
        """Emit the code from block ``b`` until control reaches ``follow``
        (the caller emits ``follow``), inside the loop headed by
        ``loop`` (-1: none)."""
        cfg, e = self.cfg, self.e
        while b is not None and b != follow:
            jump = cfg.jump(b, loop)
            if jump:
                e.emit(ind, jump)
                return
            if b in cfg.exit:  # entering a loop at its header
                e.emit(ind, "while True:")
                self.region(self.block(b, None, b, ind + 1), None, b, ind + 1)
                b = cfg.exit[b]
                continue
            b = self.block(b, follow, loop, ind)

    def block(self, b: int, follow, loop: int, ind: int):
        """Emit block ``b`` and its branch; return the block control
        continues with in this region (``None``: it does not fall
        through)."""
        fn, cfg, e = self.fn, self.cfg, self.e
        blk = fn.blocks[b]
        if self.done[b]:
            raise _unstructured(fn, f"block {blk.name!r} is reached twice")
        self.done[b] = True
        fold = [0] * N_COUNTERS
        for instr in blk.instrs:
            cat = category(instr)
            if cat is not None:
                fold[cat] += 1
            fold[C_TOTAL] += 1
        for instr in blk.instrs[:-1]:
            _emit_instr(e, ind, instr, self.plan, self.flavor)
        # fold the block's statically-known work, then check fuel: the
        # interpreter checks after *every* terminator, RET included
        for cat in range(N_COUNTERS - 1):
            if fold[cat]:
                e.emit(ind, f"_c{cat} += {fold[cat]}")
        e.emit(ind, f"_t += {fold[C_TOTAL]}")
        e.emit(ind, self.fuel_check[0])
        e.emit(ind + 1, self.fuel_check[1])
        term = blk.instrs[-1]
        if term.op is Opcode.RET:
            if loop >= 0:
                raise _unstructured(fn, f"RET inside loop {loop}")
            return None
        succ = cfg.succ[b]
        if len(succ) == 1:
            return succ[0]
        t, f = succ
        cond = f"r{term.a.id}"
        # the arms rejoin inside this loop, or only leave it (X, or a
        # block past its exit)
        m = cfg.ipdom[b]
        join = None
        if m != cfg.X and (loop < 0 or cfg.in_loop(m, loop)):
            join = m
        arm_follow = follow if join is None else join
        jt, jf = cfg.jump(t, loop), cfg.jump(f, loop)
        if jt and jf:
            e.emit(ind, f"if {cond}:")
            e.emit(ind + 1, jt)
            e.emit(ind, jf)
            return None
        if jt or jf:
            # the jumping arm leaves; the other one goes on right here
            e.emit(ind, f"if {cond}:" if jt else f"if not {cond}:")
            e.emit(ind + 1, jt or jf)
            return f if jt else t
        if t == arm_follow:
            e.emit(ind, f"if not {cond}:")
            self.region(f, arm_follow, loop, ind + 1)
        else:
            e.emit(ind, f"if {cond}:")
            self.region(t, arm_follow, loop, ind + 1)
            if f != arm_follow:
                e.emit(ind, "else:")
                self.region(f, arm_follow, loop, ind + 1)
        return join


def generate(
    fn: IRFunction, flavor: str = "direct", fuel: int = DEFAULT_FUEL
) -> tuple[str, dict]:
    """Generate (source, globals) for one kernel/flavor pair."""
    if flavor not in FLAVORS:
        raise JaponicaError(f"unknown native kernel flavor {flavor!r}")
    plan = _KernelPlan(fn)
    e = _Emitter()
    g = dict(_BASE_GLOBALS)
    for k, value in enumerate(plan.consts):
        g[f"_K{k}"] = value
    for name, var in plan.intr_var.items():
        g[var] = java_ops.INTRINSIC_FNS[name]

    buffered = flavor == "buffered"
    stored = [plan.array_code[name] for name in plan.arrays
              if name in plan.arrays_stored]
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
            e.emit(1, f"{av}_ld = _lview({av})")
        if name in plan.arrays_stored and not buffered:
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
    if buffered:
        # the SE log's columns: (pos, op, array code, flat) per logged
        # access, and per stored array its lanes' {flat: value} buffers
        e.emit(1, "_reads = ([], [], [], [])")
        e.emit(1, "_writes = ([], [], [], [])")
        for w, log in (("r", "_reads"), ("w", "_writes")):
            appends = f"_{w}_pos, _{w}_op, _{w}_arr, _{w}_flat"
            e.emit(1, f"{appends} = [c.append for c in {log}]")
        for k in stored:
            e.emit(1, f"_lane_bufs{k} = []")
            e.emit(1, f"_keep_buf{k} = _lane_bufs{k}.append")
    elif flavor == "tracing":
        e.emit(1, "_traces = {}")
    e.emit(1, "try:")
    if buffered:
        e.emit(2, "for _p, _i in enumerate(_indices):")
    else:
        e.emit(2, "for _i in _indices:")
    e.emit(3, f"r{fn.index.id} = _i")
    for p in looped_scalars:
        e.emit(3, f"r{plan.scalar_reg[p.name]} = {plan.scalar_var[p.name]}")
    if init_ids:
        chain = " = ".join(f"r{rid}" for rid in init_ids)
        e.emit(3, f"{chain} = None")
    if buffered:
        for k in stored:
            e.emit(3, f"_buf{k} = {{}}")
        e.emit(3, "_op = 0")
    elif flavor == "tracing":
        e.emit(3, "_tr = []")
        e.emit(3, "_op = 0")
    e.emit(3, "_t = 0")
    # -- the lane body, structured --------------------------------------
    _Lowering(fn, plan, flavor, e, fuel).region(0, None, -1, 3)
    # -- index epilogue -------------------------------------------------
    e.emit(3, "_c7 += _t")
    e.emit(3, "_per_lane.append(_t)")
    e.emit(3, "_t = 0")
    if buffered:
        for k in stored:
            e.emit(3, f"_keep_buf{k}(_buf{k})")
    elif flavor == "tracing":
        e.emit(3, "_traces[_i] = _tr")
    e.emit(1, "finally:")
    for k in range(N_COUNTERS - 1):
        e.emit(2, f"_raw[{k}] += _c{k}")
    e.emit(2, "_raw[7] += _c7 + _t")
    if buffered:
        bufs = ", ".join(f"{k}: _lane_bufs{k}" for k in stored)
        e.emit(
            1,
            f"return _Cols(_indices, {tuple(plan.arrays)!r}, _reads, "
            f"_writes, {{{bufs}}}, _storage)",
        )
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


#: one logged access of the buffered flavor: a row of the read (``r``)
#: or write (``w``) columns
_LOG_ACCESS = "_{w}_pos(_p); _{w}_op(_op); _{w}_arr({code}); _{w}_flat(_f)"


def _emit_instr(
    e: _Emitter, indent: int, instr, plan: _KernelPlan, flavor: str
) -> None:
    op = instr.op
    if op is Opcode.CONST:
        e.emit(indent, f"r{instr.dst.id} = {plan.const_var[id(instr)]}")
        return
    if op is Opcode.MOV:
        e.emit(indent, f"r{instr.dst.id} = r{instr.a.id}")
        return
    if op in (Opcode.BIN, Opcode.UN, Opcode.CAST, Opcode.CALL):
        e.emit(indent, f"r{instr.dst.id} = {_value_expr(instr, plan)}")
        return
    av = plan.array_var[instr.array]
    code = plan.array_code[instr.array]
    _emit_flat(e, indent, instr, plan, "_f")
    if op is Opcode.LOAD:
        dst = f"r{instr.dst.id}"
        if flavor == "direct":
            e.emit(indent, f"{dst} = {av}_ld[_f]")
        elif flavor == "buffered":
            # only this kernel's stores fill a buffer: loads of arrays it
            # never stores skip the probe
            log = indent
            if instr.array in plan.arrays_stored:
                e.emit(indent, f"if _f in _buf{code}:")
                e.emit(indent + 1, f"{dst} = _buf{code}[_f]")
                e.emit(indent, "else:")
                log = indent + 1
            e.emit(log, _LOG_ACCESS.format(w="r", code=code))
            e.emit(log, f"{dst} = {av}_ld[_f]")
            e.emit(indent, "_op += 1")
        else:  # tracing
            e.emit(indent, f"_tr.append(_AR(_op, 'R', {instr.array!r}, _f))")
            e.emit(indent, "_op += 1")
            e.emit(indent, f"{dst} = {av}_ld[_f]")
        return
    if op is Opcode.STORE:
        src = f"r{instr.a.id}"
        if flavor == "direct":
            e.emit(indent, f"{av}_fl[_f] = {src}")
        elif flavor == "buffered":
            e.emit(indent, _LOG_ACCESS.format(w="w", code=code))
            e.emit(indent, "_op += 1")
            e.emit(indent, f"_buf{code}[_f] = {src}")
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
    structure: ``None`` (direct), the launch's :class:`ColumnarLanes`
    (buffered), traces dict (tracing).
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
