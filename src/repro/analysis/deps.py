"""Static data-dependence tests over compressed (affine) accesses.

Implements rules (2)-(4) of the paper's static analysis: all pairs of
conflicting accesses to the same array are examined — write/write pairs
for output (WAW) conflicts, write/read pairs for flow/anti (RAW/WAR)
conflicts — and pairs that cannot be resolved statically are marked for
the dynamic profiling phase.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from ..lang import ast_nodes as A
from .affine import LinForm, compress


class DepKind(enum.Enum):
    TRUE = "true"  # RAW: a later iteration reads an earlier one's write
    ANTI = "anti"  # WAR
    OUTPUT = "output"  # WAW

    @property
    def is_false(self) -> bool:
        """ANTI and OUTPUT are 'false' dependencies (removable by
        privatization); TRUE dependencies require ordering."""
        return self is not DepKind.TRUE


class PairVerdict(enum.Enum):
    NO_DEP = "no-dep"
    DEP = "dep"
    UNKNOWN = "unknown"  # needs profiling


@dataclass
class Access:
    """One static array access site inside the loop body."""

    array: str
    kind: str  # 'R' or 'W'
    subs: tuple[A.Expr, ...]
    forms: tuple[Optional[LinForm], ...]
    order: int  # lexical position within the body
    guard_depth: int  # nesting depth under if/while/inner-for
    covered: bool = False  # read preceded by an unguarded same-cell write

    @property
    def affine(self) -> bool:
        return all(f is not None for f in self.forms)


@dataclass(frozen=True)
class StaticDep:
    """A statically proven loop-carried dependence."""

    array: str
    kind: DepKind
    distance: Optional[int]  # None = holds at every iteration distance
    src_order: int
    dst_order: int


@dataclass
class PairOutcome:
    verdict: PairVerdict
    deps: list[StaticDep] = field(default_factory=list)


def collect_accesses(
    loop: A.For, index: str, temps: set[str]
) -> list[Access]:
    """All array accesses in the loop body, in lexical order.

    Reads are the ArrayRef loads in expressions; writes are assignment
    targets.  A compound assignment ``a[i] op= v`` contributes both a read
    and a write of the same cell.
    """
    accesses: list[Access] = []

    def add(array: str, kind: str, subs, depth: int) -> None:
        forms = tuple(compress(s, index, temps) for s in subs)
        accesses.append(
            Access(array, kind, tuple(subs), forms, len(accesses), depth)
        )

    def scan_expr(e: A.Expr, depth: int) -> None:
        if isinstance(e, A.ArrayRef):
            for s in e.indices:
                scan_expr(s, depth)
            add(e.base.name, "R", e.indices, depth)
            return
        for child in e.children():  # each an expression too
            scan_expr(child, depth)

    def scan_stmt(s: A.Stmt, depth: int) -> None:
        if isinstance(s, A.Block):
            for sub in s.stmts:
                scan_stmt(sub, depth)
        elif isinstance(s, A.VarDecl):
            if s.init is not None:
                scan_expr(s.init, depth)
        elif isinstance(s, A.Assign):
            scan_expr(s.value, depth)
            if isinstance(s.target, A.ArrayRef):
                for sub in s.target.indices:
                    scan_expr(sub, depth)
                if s.op:  # compound: reads the old value too
                    add(s.target.base.name, "R", s.target.indices, depth)
                add(s.target.base.name, "W", s.target.indices, depth)
        elif isinstance(s, A.IncDec):
            if isinstance(s.target, A.ArrayRef):
                for sub in s.target.indices:
                    scan_expr(sub, depth)
                add(s.target.base.name, "R", s.target.indices, depth)
                add(s.target.base.name, "W", s.target.indices, depth)
        elif isinstance(s, A.ExprStmt):
            scan_expr(s.expr, depth)
        elif isinstance(s, A.If):
            scan_expr(s.cond, depth)
            scan_stmt(s.then, depth + 1)
            if s.els is not None:
                scan_stmt(s.els, depth + 1)
        elif isinstance(s, A.While):
            scan_expr(s.cond, depth + 1)
            scan_stmt(s.body, depth + 1)
        elif isinstance(s, A.For):
            if s.init is not None:
                scan_stmt(s.init, depth)
            if s.cond is not None:
                scan_expr(s.cond, depth + 1)
            scan_stmt(s.body, depth + 1)
            if s.update is not None:
                scan_stmt(s.update, depth + 1)
        elif isinstance(s, A.Return):
            if s.value is not None:
                scan_expr(s.value, depth)

    scan_stmt(loop.body, 0)
    _mark_covered_reads(accesses)
    return accesses


def _mark_covered_reads(accesses: list[Access]) -> None:
    """Mark reads whose cell was definitely written earlier this iteration.

    Only *unguarded* writes (guard depth 0, i.e. executed on every
    iteration) with a fully affine, identical subscript form cover a read.
    Covered reads always observe the current iteration's own value, so
    they cannot participate in a cross-iteration flow dependence.
    """
    from .affine import forms_key

    written: dict[tuple, int] = {}
    for acc in accesses:
        key = forms_key(acc.forms)
        if key is None:
            continue
        full_key = (acc.array, key)
        if acc.kind == "W" and acc.guard_depth == 0:
            written.setdefault(full_key, acc.order)
        elif acc.kind == "R" and full_key in written:
            if written[full_key] < acc.order:
                acc.covered = True


def _solve_dim(fw: LinForm, fo: LinForm) -> tuple[str, Optional[int]]:
    """Can ``fw`` at iteration i equal ``fo`` at iteration j?

    Returns one of:
      ('never', None)      — no solution,
      ('dist', d)          — solutions require j - i == d,
      ('any', None)        — holds for every (i, j),
      ('unknown', None)    — not statically resolvable.
    """
    diff = fo - fw  # (fo const parts) - (fw const parts)
    if diff.syms:
        return ("unknown", None)
    a1, a2, c = fw.coeff, fo.coeff, diff.const
    if a1 == 0 and a2 == 0:
        return ("any", None) if c == 0 else ("never", None)
    if a1 == a2:
        # fw(i) = a*i + kw ; fo(j) = a*j + kw + c ; equal => a*(i - j) = c,
        # so the distance d = j - i = -c / a.
        if c % a1 != 0:
            return ("never", None)
        return ("dist", -(c // a1))
    g = math.gcd(abs(a1), abs(a2))
    if g and c % g != 0:
        return ("never", None)
    return ("unknown", None)


def pair_test(
    w: Access,
    o: Access,
    trip: Optional[int] = None,
    step: int = 1,
) -> PairOutcome:
    """Dependence test between a write ``w`` and another access ``o``.

    The distance convention: a dependence with distance ``d > 0`` means
    the access ``o`` at index value ``i + d`` touches the cell ``w``
    wrote at index value ``i``.

    Dimensions that cannot be compressed (inner-loop indices, indirect
    subscripts) are treated as unconstrained, but affine dimensions still
    prune the pair: in particular, a dimension that pins the iteration
    distance to 0 proves any conflict is intra-iteration — e.g.
    ``C[i][j]`` in a GEMM body cannot carry an outer-loop dependence no
    matter what ``j`` does.

    ``trip`` / ``step``, when the loop bounds constant-evaluate, prune
    distances the iteration space cannot realize: a pinned distance that
    is not a multiple of the step, or whose magnitude exceeds the index
    span ``(trip - 1) * step``, proves the pair independent — without
    this, ``a[i + 8] = a[i]`` in an 8-iteration loop is misreported as
    loop-carried and demotes a DOALL loop.
    """
    if trip is not None and trip <= 1:
        # at most one iteration runs: nothing to carry a dependence to
        return PairOutcome(PairVerdict.NO_DEP)
    if len(w.forms) != len(o.forms):
        return PairOutcome(PairVerdict.UNKNOWN)

    distance: Optional[int] = None
    constrained = False
    has_unknown = False
    for fw, fo in zip(w.forms, o.forms):
        if fw is None or fo is None:
            has_unknown = True
            continue
        how, d = _solve_dim(fw, fo)
        if how == "never":
            return PairOutcome(PairVerdict.NO_DEP)
        if how == "unknown":
            has_unknown = True
            continue
        if how == "dist":
            if constrained and distance != d:
                return PairOutcome(PairVerdict.NO_DEP)
            distance = d
            constrained = True
        # 'any' adds no constraint

    if constrained and distance == 0:
        # conflicts, if any, are within one iteration: not loop-carried
        return PairOutcome(PairVerdict.NO_DEP)
    if constrained and step > 1 and distance % step != 0:
        # the index only ever advances in multiples of the step, so a
        # distance that is not such a multiple can never be realized
        return PairOutcome(PairVerdict.NO_DEP)
    if constrained and trip is not None and abs(distance) > (trip - 1) * step:
        # the pinned distance exceeds the whole index span of the loop
        return PairOutcome(PairVerdict.NO_DEP)
    if has_unknown:
        return PairOutcome(PairVerdict.UNKNOWN)

    deps = _deps_for(w, o, distance if constrained else None)
    if not deps:
        return PairOutcome(PairVerdict.NO_DEP)  # only intra-iteration
    return PairOutcome(PairVerdict.DEP, deps)


def _deps_for(
    w: Access, o: Access, distance: Optional[int]
) -> list[StaticDep]:
    """Classify the loop-carried dependencies implied by a solved pair."""
    deps: list[StaticDep] = []
    if o.kind == "W":
        if distance is None or distance != 0:
            deps.append(
                StaticDep(w.array, DepKind.OUTPUT, distance, w.order, o.order)
            )
        return deps
    # write/read pair
    if distance is None:
        # conflicts at every distance: both flow and anti directions exist
        if not o.covered:
            deps.append(StaticDep(w.array, DepKind.TRUE, None, w.order, o.order))
        deps.append(StaticDep(w.array, DepKind.ANTI, None, o.order, w.order))
        return deps
    if distance > 0:
        if not o.covered:
            deps.append(
                StaticDep(w.array, DepKind.TRUE, distance, w.order, o.order)
            )
    elif distance < 0:
        deps.append(
            StaticDep(w.array, DepKind.ANTI, -distance, o.order, w.order)
        )
    return deps
