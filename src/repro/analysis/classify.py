"""Variable and loop classification (paper §III-A).

Each variable in an annotated loop is classified as:

* ``temp`` — declared inside the loop, invisible outside;
* ``live-in`` — declared outside, only read in the loop;
* ``live-out`` — declared outside and updated in the loop.

The loop itself is classified as deterministically DOALL, deterministically
dependent, or *uncertain* (carrying irresolvable accesses that must be
profiled on the GPU).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..errors import AnalysisError
from ..lang import ast_nodes as A
from .deps import (
    Access,
    DepKind,
    PairVerdict,
    StaticDep,
    collect_accesses,
    pair_test,
)
from .loopinfo import LoopInfo, extract_loop_info
from .symbols import MethodScope, loop_names, outer_scope_at_loop


class LoopStatus(enum.Enum):
    DOALL = "doall"  # deterministically no loop-carried dependence
    STATIC_DEP = "static-dep"  # deterministic loop-carried dependence(s)
    UNCERTAIN = "uncertain"  # needs dynamic profiling


@dataclass
class VariableClasses:
    """The paper's three-way variable classification."""

    temp: set[str] = field(default_factory=set)
    live_in: set[str] = field(default_factory=set)
    live_out: set[str] = field(default_factory=set)


@dataclass
class LoopAnalysis:
    """Full static-analysis result for one annotated loop."""

    info: LoopInfo
    variables: VariableClasses
    accesses: list[Access]
    status: LoopStatus
    static_deps: list[StaticDep]
    profile_pairs: list[tuple[Access, Access]]
    scalar_live_outs: set[str]
    outer_types: dict[str, A.Type]

    @property
    def has_static_true(self) -> bool:
        return any(d.kind is DepKind.TRUE for d in self.static_deps)

    @property
    def has_static_false(self) -> bool:
        return any(d.kind.is_false for d in self.static_deps)

    def arrays_written(self) -> set[str]:
        return {a.array for a in self.accesses if a.kind == "W"}

    def arrays_read(self) -> set[str]:
        return {a.array for a in self.accesses if a.kind == "R"}


def analyze_loop(
    method: A.Method, loop: A.For, scope: Optional[MethodScope] = None
) -> LoopAnalysis:
    """Run the full static analysis of one annotated loop.

    ``scope`` is the loop's outer scope when the caller already has it
    (the translator finds every loop's in one walk, see
    :func:`~repro.analysis.symbols.outer_scopes`); a caller analyzing a
    single loop leaves it out, and the method is walked up to the loop.
    """
    info = extract_loop_info(loop)
    if scope is None:
        scope = outer_scope_at_loop(method, loop)
    temps, read, written = loop_names(loop)
    if info.index not in temps:
        # canonical loops declare the index in the init clause; an index
        # declared outside would be a scalar live-out
        temps = set(temps) | {info.index}

    variables = _classify_variables(scope, temps, info.index, read, written)
    scalar_live_outs = {
        name
        for name in variables.live_out
        if not isinstance(scope.types.get(name), A.ArrayType)
    }
    accesses = collect_accesses(loop, info.index, set(temps))

    trip = _const_trip_count(info)
    static_deps: list[StaticDep] = []
    profile_pairs: list[tuple[Access, Access]] = []
    writes = [a for a in accesses if a.kind == "W"]
    by_array: dict[str, list[Access]] = {}
    for acc in accesses:
        by_array.setdefault(acc.array, []).append(acc)

    seen_pairs: set[tuple[int, int]] = set()
    for w in writes:
        for other in by_array[w.array]:
            # A write is also tested against itself: a subscript that can
            # repeat across iterations (constant, or irresolvable like
            # out[idx[i]]) conflicts with its own earlier instances.
            if other.kind == "W" and (
                (other.order, w.order) in seen_pairs
                or (w.order, other.order) in seen_pairs
            ):
                continue
            seen_pairs.add((w.order, other.order))
            outcome = pair_test(w, other, trip=trip, step=info.step)
            if outcome.verdict is PairVerdict.DEP:
                static_deps.extend(outcome.deps)
            elif outcome.verdict is PairVerdict.UNKNOWN:
                profile_pairs.append((w, other))

    static_deps = _dedup_deps(static_deps)

    if scalar_live_outs:
        # a scalar updated every iteration is a loop-carried dependence
        status = LoopStatus.STATIC_DEP
    elif profile_pairs:
        status = LoopStatus.UNCERTAIN
    elif static_deps:
        status = LoopStatus.STATIC_DEP
    else:
        status = LoopStatus.DOALL

    return LoopAnalysis(
        info=info,
        variables=variables,
        accesses=accesses,
        status=status,
        static_deps=static_deps,
        profile_pairs=profile_pairs,
        scalar_live_outs=scalar_live_outs,
        outer_types=dict(scope.types),
    )


def _const_trip_count(info: LoopInfo) -> Optional[int]:
    """Trip count when both loop bounds constant-evaluate, else None.

    Constant bounds let the pairwise tests prune dependence distances
    the iteration space cannot realize (see :func:`..deps.pair_test`).
    """
    try:
        return info.trip_count({})
    except AnalysisError:
        return None


def _dedup_deps(deps: list[StaticDep]) -> list[StaticDep]:
    seen = set()
    out = []
    for d in deps:
        key = (d.array, d.kind, d.distance, d.src_order, d.dst_order)
        if key not in seen:
            seen.add(key)
            out.append(d)
    return out


def _classify_variables(
    scope: MethodScope,
    temps: set[str],
    index: str,
    read: set[str],
    written: set[str],
) -> VariableClasses:
    """Variable classification from the names the loop reads and writes
    (see :func:`~repro.analysis.symbols.loop_names`).

    (The paper's prose swaps the live-in/live-out definitions mid-
    sentence; we implement the consistent reading it states first:
    live-in and live-out are declared outside the loop and differ in
    whether the loop *updates* them.)
    """
    classes = VariableClasses(temp=set(temps))
    outside = set(scope.types) - temps - {index}
    for name in outside:
        if name in written:
            classes.live_out.add(name)
        elif name in read:
            classes.live_in.add(name)
    return classes
