"""Type-specialized Python codegen for IR kernels (the "src" tier).

An :class:`IRFunction` is lowered to one plain Python function per
flavor:

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
(counters, per-lane totals, lane masks) lives in caller-owned arguments
or per-invocation locals, so one compiled kernel is safely shared
process-wide across threads.

Flavors:

``direct``    one lane after another, reads/writes straight to storage
              (the interpreter's DirectBackend).
``tracing``   direct writes plus per-lane ordered address traces
              returned as ``{index: [AccessRecord]}`` (TracingBackend).
``lockstep``  every lane of a launch at once, as a warp runs them: the
              same structured walk emits NumPy over lane vectors under
              an active-lane mask (:class:`_Lockstep`), with values from
              the table's ``array`` forms and memory through a lane
              memory object.  Its work counts are per-block visits times
              the static per-block fold, and a lane's SE-log ``op``
              stamps stay its own.  :class:`repro.ir.vectorizer.
              VectorizedKernel` runs it over direct memory, checked for
              cross-lane conflicts, and :class:`repro.ir.specvec.
              VectorizedSpecKernel` over buffered memory, the SE log.
``collapsed`` the ``lockstep`` body of a kernel whose lane body is one
              independent counted loop (:func:`collapse`), with one lane
              per (index, iteration); an index's work is its lanes' and
              the static folds of the blocks around the loop body.
"""

from __future__ import annotations

import itertools
import linecache
from collections import Counter, namedtuple

import numpy as np

from ...errors import JaponicaError
from .. import java_ops
from ..instructions import IRFunction, JType, Opcode, SPECIAL_OPS
from ..interpreter import (
    AccessRecord,
    C_TOTAL,
    DEFAULT_FUEL,
    FuelExhausted,
    N_COUNTERS,
    category,
)

FLAVORS = ("direct", "tracing", "lockstep")


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
    "_lview": _load_view,
    "_NAN": float("nan"),
    # the lock-step flavor's lane vectors
    "_ones": np.ones, "_zeros": np.zeros, "_i64": np.int64,
    "_cnt": np.count_nonzero, "_sel": np.where, "_rep": itertools.repeat,
    "_ar": np.arange,
    "_I1": np.int32(1), "_J1": np.int64(1),
    **{f"_T_{jt.value}": java_ops.NP_TYPE[jt] for jt in JType},
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

        self.post = post
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


#: a counted loop's compare with its operands swapped, and what it adds
#: to the bound to make it an exclusive end
_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_END = {"<": 0, "<=": 1, ">": 0, ">=": -1}


class Collapse(namedtuple(
    "Collapse", "header body exit counter op init bound step"
)):
    """A lane body that is one independent counted loop (see
    :func:`collapse`): the prologue (block 0), the loop ``header`` whose
    body starts at ``body``, and ``exit``, a lone RET.  The ``counter``
    register starts at ``init`` and steps by ``step`` while ``counter
    <op> bound``; ``init`` and ``bound`` are constants or names of scalar
    parameters."""

    __slots__ = ()

    def trip(self, env) -> int:
        """The loop's trip count under ``env``; 0 as well if a bound is
        missing or not an integer, or if the counter would leave its
        type's range (Java would wrap it)."""
        lo, hi = (env.get(v) if isinstance(v, str) else v
                  for v in (self.init, self.bound))
        if not all(isinstance(v, (int, np.integer)) for v in (lo, hi)):
            return 0
        lo, hi = int(lo), int(hi)
        t = max(0, -((lo - hi - _END[self.op]) // self.step))
        last, rng = lo + t * self.step, np.iinfo(
            java_ops.NP_TYPE[self.counter.type])
        return t if rng.min <= min(lo, last) <= max(lo, last) <= rng.max \
            else 0


def collapse(fn: IRFunction):
    """The :class:`Collapse` of ``fn`` if its lane body can run one lane
    per iteration of an inner loop, else ``None``.

    The body must be a straight-line prologue without memory access,
    then one counted loop, then RET.  The loop compares its counter with
    a bound that is a constant or a scalar parameter; only its init and
    its one latch's constant step write the counter, and only its header
    leaves the loop.  Its iterations must not carry a register: each one
    the body reads (the counter aside) is never written in the loop, or
    written earlier in the same iteration on every path.  Every load or
    store of an array the loop stores must use the index registers of
    that array's stores, the counter among them; iterations that still
    touch one another's cells are a run-time
    :class:`repro.ir.vectorizer.LaneConflict`."""
    try:
        cfg = _Cfg(fn)
    except JaponicaError:
        return None
    blocks, succ = fn.blocks, cfg.succ
    h = succ[0][0] if len(succ[0]) == 1 else 0
    x = cfg.exit.get(h)
    loop = [b for b in reversed(cfg.post) if h and cfg.in_loop(b, h)]
    latches = [b for b in loop if h in succ[b]]
    head = blocks[h].instrs
    if (x is None or succ[h][1:] != (x,) or len(loop) + 2 != len(blocks)
            or [i.op for i in blocks[x].instrs] != [Opcode.RET]
            or len(head) != 2 or head[0].binop not in _FLIP
            or head[1].a.id != head[0].dst.id or len(latches) != 1
            or blocks[latches[0]].instrs[-1].op is not Opcode.BR
            or any(i.op in (Opcode.LOAD, Opcode.STORE)
                   for i in blocks[0].instrs)
            or any(not cfg.in_loop(v, h) for b in loop[1:] for v in succ[b])):
        return None
    writes: dict[int, list] = {}
    for b, blk in enumerate(blocks):
        for i in blk.instrs:
            if i.dst is not None:
                writes.setdefault(i.dst.id, []).append((b, i))
    defs = {b: {i.dst.id for i in blocks[b].instrs if i.dst} for b in loop}
    looped = set().union(*defs.values())
    cmp = head[0]
    j, bound, op = (cmp.a, cmp.b, cmp.binop) if cmp.a.id in looped else (
        cmp.b, cmp.a, _FLIP[cmp.binop])
    scalars = {fn.scalar_regs[p.name].id: p.name for p in fn.scalars}

    def single(r, block=None):
        """The one instruction writing ``r`` (in ``block``), or None."""
        ws = writes.get(r.id, [])
        ok = len(ws) == 1 and block in (None, ws[0][0])
        return ws[0][1] if ok else None

    def uniform(r):
        """The scalar's name or the prologue constant ``r`` holds."""
        if r.id not in writes:
            return scalars.get(r.id)
        i = single(r, 0)
        return i.value if i and i.op is Opcode.CONST else None

    ws = sorted(writes.get(j.id, []), key=lambda w: w[0] != 0)
    if (j.type not in (JType.INT, JType.LONG) or bound.type is not j.type
            or [w[0] for w in ws] != [0, latches[0]]):
        return None
    (_, init), (_, step) = ws
    init = init.value if init.op is Opcode.CONST else (
        uniform(init.a) if init.op is Opcode.MOV else None)
    if step.op is Opcode.MOV:
        step = single(step.a)
    c = (step and step.op is Opcode.BIN and step.a.id == j.id
         and step.binop in ("+", "-") and single(step.b))
    step = c and c.op is Opcode.CONST and c.value * (
        1 if step.binop == "+" else -1)
    if (init is None or uniform(bound) is None or not step
            or (step > 0) != (op[0] == "<")):
        return None
    # must-defs at each block's entry, from the header's (none) on
    have = {b: set(looped) for b in loop}
    have[h] = set()
    while True:
        new = {b: set.intersection(*(have[p] | defs[p] for p in loop
                                     if b in succ[p])) for b in loop[1:]}
        if all(new[b] == have[b] for b in new):
            break
        have.update(new)
    carried, cells = looped - {j.id}, {}
    for b in loop:
        live = set(have[b])
        for i in blocks[b].instrs:
            if any(r is not None and r.id in carried and r.id not in live
                   for r in (i.a, i.b, *i.idx, *i.args)):
                return None
            if i.dst is not None:
                live.add(i.dst.id)
            if i.op in (Opcode.LOAD, Opcode.STORE):
                cells.setdefault(i.array, set()).add(
                    tuple(r.id for r in i.idx))
    stored = {i.array for b in loop for i in blocks[b].instrs
              if i.op is Opcode.STORE}
    if any(len(cells[a]) != 1 or j.id not in next(iter(cells[a]))
           for a in stored):
        return None
    return Collapse(h, succ[h][0], x, j, op, init, uniform(bound), step)


def _fold(blk) -> list[int]:
    """A block's static work per counter."""
    fold = [0] * N_COUNTERS
    for instr in blk.instrs:
        cat = category(instr)
        if cat is not None:
            fold[cat] += 1
    fold[C_TOTAL] = len(blk.instrs)
    return fold


class _Lowering:
    """Emits the structured lane body of one kernel/flavor pair, one
    lane at a time (the ``direct`` and ``tracing`` flavors).

    ``region`` and ``block`` are the walk every flavor shares; the
    remaining methods are the statements one flavor emits for it.
    """

    def __init__(self, fn, plan, flavor, e, fuel):
        self.fn, self.plan, self.flavor, self.e = fn, plan, flavor, e
        self.cfg = _Cfg(fn)
        self.done = [False] * len(fn.blocks)
        #: per emitted block, its static work per counter
        self.folds: list = [None] * len(fn.blocks)
        self.fuel = fuel
        self.msg = f"kernel {fn.name!r} exceeded {fuel} instructions at index "
        self.fuel_check = (
            f"if _t > {fuel}:", f"raise _Fuel({self.msg!r} + str(_i))"
        )

    def region(self, b, follow, loop: int, ind: int, arm=False) -> None:
        """Emit the code from block ``b`` until control reaches ``follow``
        (the caller emits ``follow``), inside the loop headed by
        ``loop`` (-1: none); ``arm``: inside a branch arm of that loop."""
        cfg = self.cfg
        while b is not None and b != follow:
            jump = cfg.jump(b, loop)
            if jump:
                self.leave(jump, loop, ind)
                return
            if b in cfg.exit:  # entering a loop at its header
                body = self.enter_loop(b, ind)
                self.region(self.block(b, None, b, body), None, b, body)
                self.exit_loop(b, ind)
                b = cfg.exit[b]
                continue
            b = self.block(b, follow, loop, ind, arm)

    def block(self, b: int, follow, loop: int, ind: int, arm=False):
        """Emit block ``b`` and its branch; return the block control
        continues with in this region (``None``: it does not fall
        through)."""
        fn, cfg = self.fn, self.cfg
        blk = fn.blocks[b]
        if self.done[b]:
            raise _unstructured(fn, f"block {blk.name!r} is reached twice")
        self.done[b] = True
        fold = self.folds[b] = _fold(blk)
        self.body(b, blk.instrs[:-1], ind)
        self.fold(b, fold, ind)
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
        jt, jf = cfg.jump(t, loop), cfg.jump(f, loop)
        if jt or jf:
            self.branch_leaves(cond, jt, jf, loop, ind, arm)
            if jt and jf:
                return None
            return f if jt else t  # the other arm goes on right here
        self.branch(cond, t, f, follow if join is None else join, loop, ind)
        return join

    # -- one lane at a time -----------------------------------------------

    def body(self, b, instrs, ind) -> None:
        for instr in instrs:
            _emit_instr(self.e, ind, instr, self.plan, self.flavor)

    def fold(self, b, fold, ind) -> None:
        # count the visit (the launch adds visits times the static fold
        # to _raw once), then check fuel: the interpreter checks after
        # *every* terminator, RET included
        e = self.e
        e.emit(ind, f"_v{b} += 1")
        e.emit(ind, f"_t += {fold[C_TOTAL]}")
        e.emit(ind, self.fuel_check[0])
        e.emit(ind + 1, self.fuel_check[1])

    def leave(self, jump, loop, ind) -> None:
        self.e.emit(ind, jump)

    def enter_loop(self, h, ind) -> int:
        self.e.emit(ind, "while True:")
        return ind + 1

    def exit_loop(self, h, ind) -> None:
        pass

    def branch_leaves(self, cond, jt, jf, loop, ind, arm) -> None:
        e = self.e
        if jt and jf:
            e.emit(ind, f"if {cond}:")
            e.emit(ind + 1, jt)
            e.emit(ind, jf)
            return
        e.emit(ind, f"if {cond}:" if jt else f"if not {cond}:")
        e.emit(ind + 1, jt or jf)

    def branch(self, cond, t, f, follow, loop, ind) -> None:
        e = self.e
        if t == follow:
            e.emit(ind, f"if not {cond}:")
            self.region(f, follow, loop, ind + 1, True)
            return
        e.emit(ind, f"if {cond}:")
        self.region(t, follow, loop, ind + 1, True)
        if f != follow:
            e.emit(ind, "else:")
            self.region(f, follow, loop, ind + 1, True)


def _merged(fn: IRFunction) -> set[int]:
    """Registers a lock-step write keeps masked-off lanes of: all but
    those written in one block and read only there, after a write."""
    home: dict[int, int] = {}
    merged: set[int] = set()
    for b, blk in enumerate(fn.blocks):
        for instr in blk.instrs:
            for r in (instr.a, instr.b, *instr.idx, *instr.args):
                if r is not None and home.get(r.id) != b:
                    merged.add(r.id)
            if instr.dst is not None and home.setdefault(instr.dst.id, b) != b:
                merged.add(instr.dst.id)
    return merged


class _Lockstep(_Lowering):
    """Emits the ``lockstep`` body: every lane of a launch at once, as
    NumPy over lane vectors, under the active-lane mask ``_m`` (``_all``:
    every lane is active, and nothing is masked).

    A branch splits the mask, runs each arm some lane takes (a uniform
    branch keeps the mask) and rejoins; a loop repeats while any of its
    lanes ``_L<h>`` is active, ``break`` dropping lanes from it and
    ``continue`` idling them until the next pass.  A write to a
    :func:`_merged` register keeps masked-off lanes' values; loads and
    stores touch active lanes only, through the lane memory
    ``_ld``/``_st``.  Per block, ``_v`` counts the visiting lanes and
    ``_t`` gains the block's total in them (``_op``, the memory-op
    stamps, its loads and stores when the memory logs); fuel is checked
    at loop headers against ``_tmax``, a bound on every lane's total.
    """

    def __init__(self, fn, plan, e, fuel, g):
        super().__init__(fn, plan, "lockstep", e, fuel)
        self.merged = _merged(fn)
        self.g, self.fns, self.fresh = g, {}, itertools.count()
        #: per loop header: jumps out of a pass of its body emitted
        self.leaves: Counter = Counter()
        self.fuel_check = f"if _tmax > {fuel} and " + self.over("_t", "_idx")

    def over(self, t: str, idx: str) -> str:
        """The test that some lane's total in ``t`` exceeds the fuel,
        raising the interpreter's message at that lane's index."""
        fuel = self.fuel
        return (f"_cnt({t} > {fuel}): raise _Fuel("
                f"{self.msg!r} + str({idx}[({t} > {fuel}).argmax()]))")

    def fn_var(self, fn) -> str:
        """A global bound to ``fn``, an array form of the table."""
        var = self.fns.setdefault(id(fn), f"_A{len(self.fns)}")
        self.g[var] = fn
        return var

    def body(self, b, instrs, ind) -> None:
        e, code = self.e, self.plan.array_code
        self.mem = 0
        for instr in instrs:
            op = instr.op
            if op in (Opcode.LOAD, Opcode.STORE):
                x, y = ([f"r{r.id}" for r in instr.idx] + ["None"])[:2]
                at = f"{code[instr.array]}, {x}, {y}"
                lanes = f"_m, _all, _op, {self.mem}"
                self.mem += 1
                if op is Opcode.STORE:
                    e.emit(ind, f"_st({at}, r{instr.a.id}, {lanes})")
                    continue
                value = f"_ld({at}, {lanes})"
            elif op is Opcode.CONST:
                value = self.plan.const_var[id(instr)]
            elif op is Opcode.MOV:
                value = f"r{instr.a.id}"
            else:
                value = self.array_expr(instr)
            d = f"r{instr.dst.id}"
            if instr.dst.id in self.merged:
                value = f"{value} if _all else _sel(_m, {value}, {d})"
            e.emit(ind, f"{d} = {value}")

    def array_expr(self, instr) -> str:
        """The table's array form of a value instruction."""
        op, a = instr.op, [f"r{r.id}" for r in (instr.a, instr.b) if r]
        if op is Opcode.CALL:
            _scalar, core, convert = java_ops.call_rule(
                instr.intrinsic, instr.dst.type
            )
            args = ", ".join(f"r{r.id}" for r in instr.args)
            return f"{self.fn_var(convert.array)}({self.fn_var(core)}({args}))"
        if op is Opcode.BIN:
            rule = java_ops.bin_rule(instr.binop, instr.a.type)
            if instr.binop in SPECIAL_OPS and instr.a.type in _ONE:
                # a masked-off lane's divisor may be 0: it divides by 1
                one = _ONE[instr.a.type]
                a[1] = f"({a[1]} if _all else _sel(_m, {a[1]}, {one}))"
        elif op is Opcode.UN:
            rule = java_ops.un_rule(instr.binop, instr.dst.type)
        else:
            rule = java_ops.CAST_RULES[instr.a.type, instr.dst.type]
        return f"{self.fn_var(rule.array)}({', '.join(a)})"

    def fold(self, b, fold, ind) -> None:
        e, total = self.e, fold[C_TOTAL]
        e.emit(ind, f"_v[{b}] += _n if _all else _cnt(_m)")
        e.emit(ind, f"_tmax += {total}")
        e.emit(ind, f"_t += {total} if _all else {total} * _m")
        if self.mem:
            e.emit(ind, f"if _lg: _op = _op + "
                        f"({self.mem} if _all else {self.mem} * _m)")

    def leave(self, jump, loop, ind) -> None:
        # every active lane jumps
        self.leaves[loop] += 1
        if jump == "break":
            self.e.emit(ind, f"_L{loop} = _L{loop} ^ _m; _LA{loop} = False")
        self.e.emit(ind, "_m, _all = _none, False")

    def enter_loop(self, h, ind) -> int:
        e = self.e
        e.emit(ind, f"_L{h} = _E{h} = _m; _LA{h} = _EA{h} = _all")
        e.emit(ind, "while True:")
        e.emit(ind + 1, f"if not (_LA{h} or _cnt(_L{h})): break")
        e.emit(ind + 1, f"_m, _all = _L{h}, _LA{h}")
        e.emit(ind + 1, self.fuel_check)
        return ind + 1

    def exit_loop(self, h, ind) -> None:
        # the loop's one exit: every lane that entered leaves through it
        self.e.emit(ind, f"_m, _all = _E{h}, _EA{h}")

    def branch_leaves(self, cond, jt, jf, loop, ind, arm) -> None:
        # (bools: _m > c is _m and not c)
        e, k = self.e, next(self.fresh)
        self.leaves[loop] += 1
        if jt and jf:  # every active lane leaves, by jt where cond holds
            if "break" in (jt, jf):  # the lanes that break
                gone = "_m" if jt == jf else {
                    "break": f"_m & {cond}", "continue": f"_m > {cond}"
                }[jt]
                e.emit(ind, f"_L{loop} = _L{loop} ^ ({gone}); "
                            f"_LA{loop} = False")
            e.emit(ind, "_m, _all = _none, False")
            return
        e.emit(ind, f"_j{k} = _m & {cond}" if jt else f"_j{k} = _m > {cond}")
        e.emit(ind, f"if _cnt(_j{k}):")
        if (jt or jf) == "break":
            e.emit(ind + 1, f"_L{loop} = _L{loop} ^ _j{k}; _LA{loop} = False")
        e.emit(ind + 1, f"_m, _all = _m ^ _j{k}, False")
        if not arm:  # no sibling arm waits: an empty path ends the pass
            e.emit(ind + 1, "if not _cnt(_m): continue")

    def branch(self, cond, t, f, follow, loop, ind) -> None:
        e, k = self.e, next(self.fresh)
        e.emit(ind, f"_s{k}, _sa{k}, _bt{k} = _m, _all, _m & {cond}")
        e.emit(ind, f"_bf{k} = _m ^ _bt{k}")
        e.emit(ind, f"_nt{k}, _nf{k} = _cnt(_bt{k}), _cnt(_bf{k})")
        before = self.leaves[loop]
        for arm, side, other in ((t, "t", "f"), (f, "f", "t")):
            if arm == follow:  # its lanes go straight to the join
                continue
            e.emit(ind, f"if _n{side}{k}:")
            e.emit(ind + 1, f"if _n{other}{k}: _m, _all = _b{side}{k}, False")
            left = self.leaves[loop]
            self.region(arm, follow, loop, ind + 1, True)
            if self.leaves[loop] != left:
                e.emit(ind + 1, f"_b{side}{k} = _m")
        if self.leaves[loop] == before:
            e.emit(ind, f"_m, _all = _s{k}, _sa{k}")
        else:  # some lanes left the pass in an arm
            e.emit(ind, f"_m, _all = _bt{k} | _bf{k}, False")


#: the divisor a masked-off lane's integer ``/`` and ``%`` use
_ONE = {JType.INT: "_I1", JType.LONG: "_J1"}


def generate(
    fn: IRFunction, flavor: str = "direct", fuel: int = DEFAULT_FUEL
) -> tuple[str, dict]:
    """Generate (source, globals) for one kernel/flavor pair."""
    if flavor not in FLAVORS + ("collapsed",):
        raise JaponicaError(f"unknown native kernel flavor {flavor!r}")
    plan = _KernelPlan(fn)
    e = _Emitter()
    g = dict(_BASE_GLOBALS)
    if flavor in ("lockstep", "collapsed"):
        c = collapse(fn) if flavor == "collapsed" else None
        if flavor == "collapsed" and c is None:
            raise JaponicaError(f"kernel {fn.name!r} does not collapse")
        _generate_lockstep(fn, plan, e, g, fuel, c)
        return e.source(), g
    for k, value in enumerate(plan.consts):
        g[f"_K{k}"] = value
    for name, var in plan.intr_var.items():
        g[var] = java_ops.INTRINSIC_FNS[name]

    tracing = flavor == "tracing"
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
        if name in plan.arrays_stored:
            e.emit(1, f"{av}_fl = {av}.flat if {av} is not None else None")
    # -- scalar binds (interpreter order and error message) -------------
    _emit_scalar_binds(e, fn, plan)
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
    e.emit(1, " = ".join(f"_v{b}" for b in range(len(fn.blocks))) + " = 0")
    e.emit(1, "_t = 0")
    if tracing:
        e.emit(1, "_traces = {}")
    e.emit(1, "try:")
    e.emit(2, "for _i in _indices:")
    e.emit(3, f"r{fn.index.id} = _i")
    for p in looped_scalars:
        e.emit(3, f"r{plan.scalar_reg[p.name]} = {plan.scalar_var[p.name]}")
    if init_ids:
        chain = " = ".join(f"r{rid}" for rid in init_ids)
        e.emit(3, f"{chain} = None")
    if tracing:
        e.emit(3, "_tr = []")
        e.emit(3, "_op = 0")
    e.emit(3, "_t = 0")
    # -- the lane body, structured --------------------------------------
    low = _Lowering(fn, plan, flavor, e, fuel)
    low.region(0, None, -1, 3)
    # -- index epilogue -------------------------------------------------
    e.emit(3, "_per_lane.append(_t)")
    e.emit(3, "_t = 0")
    if tracing:
        e.emit(3, "_traces[_i] = _tr")
    e.emit(1, "finally:")
    _emit_work(e, 2, low.folds, "_v{}")
    e.emit(1, "return _traces" if tracing else "return None")
    return e.source(), g


def _emit_scalar_binds(e: _Emitter, fn: IRFunction, plan) -> None:
    """Bind every scalar parameter in the interpreter's order, with its
    missing-scalar message."""
    for p in fn.scalars:
        sv = plan.scalar_var[p.name]
        msg = f"kernel {fn.name!r} missing scalar {p.name!r}"
        e.emit(1, "try:")
        e.emit(2, f"{sv} = _env[{p.name!r}]")
        e.emit(1, "except KeyError:")
        e.emit(2, f"raise _JErr({msg!r}) from None")


def _emit_work(e: _Emitter, ind: int, folds, visits: str) -> None:
    """Add each counter's work to ``_raw``: every emitted block's visits
    (``visits`` formatted with its index) times its static fold."""
    for cat in range(N_COUNTERS):
        terms = [f"{visits.format(b)} * {fold[cat]}"
                 for b, fold in enumerate(folds) if fold and fold[cat]]
        if terms:
            e.emit(ind, f"_raw[{cat}] += " + " + ".join(terms))


def _generate_lockstep(fn, plan, e, g, fuel, c=None) -> None:
    """``_kernel(_idx, _env, _mem, _raw, _per_lane)``: run the lanes of
    ``_idx`` (int64) in lock-step over the lane memory ``_mem``; only on
    success add the work to ``_raw``, extend ``_per_lane`` (unless
    ``None``) and return ``_mem.finish(_op)``.

    Collapsed over ``c`` (a :class:`Collapse`), ``_mem`` holds ``trip``
    lanes per index: the index repeats and the counter tiles across
    them, and each lane runs the loop body once.  The prologue, the
    header (``trip + 1`` visits per index) and the RET count from their
    static folds, and an index's total is the sum of its lanes'."""
    low = _Lockstep(fn, plan, e, fuel, g)
    written = {}
    for instr in (i for blk in fn.blocks for i in blk.instrs):
        if instr.dst is not None:
            written[instr.dst.id] = java_ops.NP_TYPE[instr.dst.type]
        if instr.op is Opcode.CONST:
            g[plan.const_var[id(instr)]] = written[instr.dst.id](instr.value)
    e.emit(0, "def _kernel(_idx, _env, _mem, _raw, _per_lane):")
    if c is not None:
        e.emit(1, "_no = len(_idx); _trip = _mem.n // _no")
        e.emit(1, "_oi, _idx = _idx, _idx.repeat(_trip)")
    e.emit(1, f"_n, _lg, _tmax, _v = len(_idx), _mem.logs, 0, "
              f"[0] * {len(fn.blocks)}")
    e.emit(1, "_m, _all = _ones(_n, bool), True")
    # one block: every lane's total is _tmax, no lane ever leaves
    e.emit(1, "_t = _i64(0)" if fn.is_straightline
           else "_none, _t = ~_m, _zeros(_n, _i64)")
    e.emit(1, "_op = _zeros(_n, _i64) if _lg else None")
    e.emit(1, "_ld, _st = _mem.load, _mem.store")
    _emit_scalar_binds(e, fn, plan)
    e.emit(1, f"r{fn.index.id} = _idx.astype(_T_int)")
    for p in fn.scalars:
        e.emit(1, f"r{plan.scalar_reg[p.name]} = "
                  f"_T_{p.type.value}({plan.scalar_var[p.name]})")
    bound = {fn.index.id, *plan.scalar_reg.values()}
    for rid in sorted(low.merged & written.keys() - bound):
        g[f"_Z{rid}"] = written[rid](0)  # what masked-off lanes keep
        e.emit(1, f"r{rid} = _Z{rid}")
    if c is None:
        low.region(0, None, -1, 1)
        e.emit(1, low.fuel_check)
    else:
        for b in (0, c.header, c.exit):
            low.done[b], low.folds[b] = True, _fold(fn.blocks[b])
        low.body(0, fn.blocks[0].instrs[:-1], 1)  # the prologue, per lane
        j = f"r{c.counter.id}"
        e.emit(1, f"{j} = ({j} + {c.step} * (_ar(_n) % _trip))"
                  f".astype(_T_{c.counter.type.value})")
        low.region(c.body, None, c.header, 1)
        f0, fh, fx = (low.folds[b][C_TOTAL] for b in (0, c.header, c.exit))
        e.emit(1, f"_t = _t.reshape(_no, _trip).sum(1) + "
                  f"({f0 + fh + fx} + {fh} * _trip)")
        e.emit(1, "if " + low.over("_t", "_oi"))
        e.emit(1, f"_v[0] = _v[{c.exit}] = _no; "
                  f"_v[{c.header}] = _no * (_trip + 1)")
    e.emit(1, "_out = _mem.finish(_op)")
    _emit_work(e, 1, low.folds, "_v[{}]")
    e.emit(1, "if _per_lane is not None:")
    e.emit(2, f"_per_lane.extend(_rep({low.folds[0][C_TOTAL]}, _n))"
              if fn.is_straightline else "_per_lane += _t.tolist()")
    e.emit(1, "return _out")


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
    _emit_flat(e, indent, instr, plan, "_f")
    tracing = flavor == "tracing"
    if op is Opcode.LOAD:
        if tracing:
            e.emit(indent, f"_tr.append(_AR(_op, 'R', {instr.array!r}, _f))")
            e.emit(indent, "_op += 1")
        e.emit(indent, f"r{instr.dst.id} = {av}_ld[_f]")
        return
    if op is Opcode.STORE:
        if tracing:
            e.emit(indent, f"_tr.append(_AR(_op, 'W', {instr.array!r}, _f))")
            e.emit(indent, "_op += 1")
        e.emit(indent, f"{av}_fl[_f] = r{instr.a.id}")
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
    structure: ``None`` (direct), traces dict (tracing).  The
    ``lockstep`` flavor's ``run`` takes lane indices as an int64 array
    and a lane memory in place of the storage (see
    :func:`_generate_lockstep`), and so does ``collapsed``'s; the
    lock-step kernels of :mod:`repro.ir.vectorizer` and
    :mod:`repro.ir.specvec` drive them.
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
