"""Annotation inference for bare loops (ROADMAP item 2).

Japonica's front end (§III-A) classifies, profiles and schedules only
loops the user annotated with ``/* acc parallel ... */``.  The TornadoVM
"Can We Run in Parallel?" and J-Parallelio lines of work show the same
directive can be *inferred*: run the static machinery this repo already
owns — variable classification (:mod:`.classify` / :mod:`.symbols`),
affine compression (:mod:`.affine`) and the pairwise WAW/RAW tests
(:mod:`.deps`) — over every bare canonical loop, then decide which loop
of each nest to annotate and synthesize the directive.

The pass has three parts:

* :func:`propose_loop` analyzes one bare loop and produces a
  :class:`LoopProposal`: a parallelism tag (``doall`` / ``static-dep`` /
  ``uncertain``), a placement score, and — when the loop is eligible — a
  synthesized :class:`~repro.lang.annotations.Annotation` whose data
  clauses carry *tight* array sections computed from the affine access
  ranges (falling back to whole-array sections when an access is not
  affine, the loop is strided, or ranges are not statically comparable).

* :func:`infer_method` runs the placement recursion: annotate a loop
  outright when it is statically DOALL; descend when a strictly better
  (or equally promising) loop exists deeper in the nest; otherwise
  annotate at the current level.  The policy reproduces the hand
  placement of all Table-II workloads without any profiling.

* uncertain proposals are *confirmed or rejected* by the existing DD
  profiler: the scheduler already profiles every uncertain loop before
  dispatch, and :meth:`InferenceReport.absorb_profiles` folds the
  resulting :class:`~repro.profiler.report.DependencyProfile` back into
  the proposal (``confirmed-doall`` / ``confirmed-privatizable`` /
  ``rejected``).

Soundness rules (see DESIGN §5.7): inference only ever *adds* an
annotation to a loop that has none; loops that are hand-annotated, or
that contain or sit inside a hand-annotated loop, are left untouched.
Synthesized sections always cover every cell the loop can touch —
widening to the whole array whenever the static range is not provably
tight — so an inferred clause can be wider, never narrower, than the
accesses it describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from ..errors import AnalysisError, nesting_guard
from ..lang import ast_nodes as A
from ..lang.annotations import Annotation, ArraySection
from ..lang.pretty import format_annotation
from .classify import LoopAnalysis, LoopStatus, analyze_loop

#: Placement scores (higher = better loop to annotate).
SCORE_DOALL = 3.0       # statically proven DOALL
SCORE_UNCERTAIN = 2.0   # needs profiling; may turn out clean
SCORE_FALSE_DEP = 2.0   # static deps, but all privatizable (ANTI/OUTPUT)
SCORE_DEP = 1.0         # static TRUE dep or scalar live-out: last resort
SCORE_NONE = 0.0        # non-canonical: cannot be annotated at all

#: Tags the inference attaches to a proposal.
TAG_DOALL = "doall"
TAG_STATIC_DEP = "static-dep"
TAG_UNCERTAIN = "uncertain"
TAG_NON_CANONICAL = "non-canonical"
TAG_HAND = "hand-annotated"
TAG_CONTAINER = "contains-annotated"


@dataclass
class LoopProposal:
    """Inference verdict for one ``for`` loop of a method."""

    method: str
    loop: A.For
    index: int          # pre-order position among the method's loops
    depth: int          # loop-nest depth (0 = outermost)
    tag: str
    score: float
    reason: str
    chosen: bool = False
    annotation: Optional[Annotation] = None
    analysis: Optional[LoopAnalysis] = None
    #: translated loop id (``method#ordinal``) once the program compiles
    loop_id: Optional[str] = None
    #: DD-profiler verdict for uncertain proposals (set after a run)
    confirmation: Optional[str] = None

    @property
    def directive(self) -> str:
        """The proposed ``acc`` directive as re-parseable text."""
        if self.annotation is None:
            return ""
        return format_annotation(self.annotation)

    def pos_str(self) -> str:
        return str(self.loop.pos)


@dataclass
class MethodInference:
    """All proposals of one method, in loop pre-order."""

    method: str
    proposals: list[LoopProposal] = field(default_factory=list)

    @property
    def chosen(self) -> list[LoopProposal]:
        return [p for p in self.proposals if p.chosen]


@dataclass
class InferenceReport:
    """Whole-class inference outcome, one entry per method with loops."""

    methods: dict[str, MethodInference] = field(default_factory=dict)

    @property
    def proposals(self) -> list[LoopProposal]:
        return [p for mi in self.methods.values() for p in mi.proposals]

    @property
    def chosen(self) -> list[LoopProposal]:
        return [p for p in self.proposals if p.chosen]

    def absorb_profiles(self, profiles: Mapping[str, object]) -> None:
        """Fold DD-profiler results back into uncertain proposals.

        ``profiles`` maps translated loop ids to
        :class:`~repro.profiler.report.DependencyProfile`; the scheduler
        fills :attr:`ExecutionContext.profiles` as it dispatches, so
        calling this after a run closes the confirmation loop.
        """
        for p in self.proposals:
            if p.loop_id is None or p.loop_id not in profiles:
                continue
            if p.tag != TAG_UNCERTAIN:
                continue
            prof = profiles[p.loop_id]
            if prof.has_true:
                p.confirmation = "rejected"
            elif prof.has_false:
                p.confirmation = "confirmed-privatizable"
            else:
                p.confirmation = "confirmed-doall"

    def summary_lines(self) -> list[str]:
        """Human-readable one-line-per-loop summary (CLI output)."""
        lines: list[str] = []
        for mi in self.methods.values():
            for p in mi.proposals:
                mark = "+" if p.chosen else " "
                head = (
                    f"{mark} {p.method} loop#{p.index} (depth {p.depth}, "
                    f"{p.pos_str()}): {p.tag}"
                )
                if p.confirmation:
                    head += f" [{p.confirmation}]"
                if p.chosen and p.annotation is not None:
                    head += f" -> /* {p.directive} */"
                elif p.reason:
                    head += f" — {p.reason}"
                lines.append(head)
        return lines


# ---------------------------------------------------------------------------
# Per-loop proposal
# ---------------------------------------------------------------------------


def propose_loop(method: A.Method, loop: A.For, index: int, depth: int) -> LoopProposal:
    """Analyze one bare loop and score it for placement."""
    try:
        with nesting_guard(f"{method.name}#{index}"):
            analysis = analyze_loop(method, loop)
    except AnalysisError as exc:
        return LoopProposal(
            method=method.name,
            loop=loop,
            index=index,
            depth=depth,
            tag=TAG_NON_CANONICAL,
            score=SCORE_NONE,
            reason=str(exc),
        )

    if analysis.status is LoopStatus.DOALL:
        tag, score = TAG_DOALL, SCORE_DOALL
        reason = "no loop-carried dependence (statically proven)"
    elif analysis.status is LoopStatus.UNCERTAIN:
        tag, score = TAG_UNCERTAIN, SCORE_UNCERTAIN
        reason = (
            f"{len(analysis.profile_pairs)} access pair(s) need dynamic "
            f"profiling"
        )
    elif analysis.scalar_live_outs:
        tag, score = TAG_STATIC_DEP, SCORE_DEP
        reason = (
            "scalar live-out(s) "
            f"{sorted(analysis.scalar_live_outs)} carry a dependence"
        )
    elif analysis.has_static_true:
        tag, score = TAG_STATIC_DEP, SCORE_DEP
        reason = "static TRUE dependence(s); ordering required"
    else:
        tag, score = TAG_STATIC_DEP, SCORE_FALSE_DEP
        reason = "only false (privatizable) static dependences"

    return LoopProposal(
        method=method.name,
        loop=loop,
        index=index,
        depth=depth,
        tag=tag,
        score=score,
        reason=reason,
        analysis=analysis,
    )


# ---------------------------------------------------------------------------
# Annotation synthesis
# ---------------------------------------------------------------------------


def synthesize_annotation(analysis: LoopAnalysis) -> Annotation:
    """Build the executable directive for a proposal.

    ``private`` lists the loop's temps (redundant but explicit — the
    paper's ``temp`` class is implicitly private); the data clauses
    mirror the directions the auto data plan would pick (read ⇒ copyin,
    written-never-read ⇒ create, written ⇒ copyout), with tight dim-0
    sections from the affine access ranges where provable.
    """
    loop = analysis.info.loop
    ann = Annotation(pos=loop.pos, parallel=True)
    index = analysis.info.index
    ann.private = sorted(analysis.variables.temp - {index})

    arrays_read = analysis.arrays_read()
    arrays_written = analysis.arrays_written()
    array_vars = {
        name
        for name, t in analysis.outer_types.items()
        if isinstance(t, A.ArrayType)
    }
    for name in sorted((arrays_read | arrays_written) & array_vars):
        if name in arrays_read:
            # copyin must cover every cell the device touches (reads and,
            # for a mixed array, the written cells it will hold)
            kinds = ("R", "W") if name in arrays_written else ("R",)
            ann.copyin.append(_synthesize_section(analysis, name, kinds))
        else:
            ann.create.append(_synthesize_section(analysis, name, ("W",)))
        if name in arrays_written:
            ann.copyout.append(_synthesize_section(analysis, name, ("W",)))
    return ann


def _synthesize_section(
    analysis: LoopAnalysis, name: str, kinds: tuple[str, ...]
) -> ArraySection:
    """Tight dim-0 section covering the selected accesses, else whole.

    The range is provable only when every relevant access's leading
    subscript compresses to the *same* ``coeff*i + syms`` shape (so the
    forms differ by constants and their endpoints are comparable), the
    loop has unit step, and every symbolic term is a plain outer scalar
    that an annotation bound may reference.
    """
    info = analysis.info
    accs = [
        a for a in analysis.accesses if a.array == name and a.kind in kinds
    ]
    forms = [a.forms[0] for a in accs]
    if not forms or any(f is None for f in forms):
        return ArraySection(name)
    if info.step != 1:
        return ArraySection(name)  # endpoint needs a trip-count expression
    shapes = {(f.coeff, f.syms) for f in forms}
    if len(shapes) != 1:
        return ArraySection(name)  # ranges not statically comparable
    coeff, syms = next(iter(shapes))
    scalars = {
        n
        for n, t in analysis.outer_types.items()
        if not isinstance(t, A.ArrayType)
    }
    if any(n not in scalars for n, _ in syms):
        return ArraySection(name)  # e.g. a synthetic length symbol
    consts = [f.const for f in forms]
    k_min, k_max = min(consts), max(consts)

    pos = info.loop.pos
    first = info.lower
    last = (
        info.upper
        if info.upper_inclusive
        else _sub(info.upper, A.IntLit(pos, 1), pos)
    )
    if coeff > 0:
        low = _affine_expr(coeff, syms, k_min, first, pos)
        high = _affine_expr(coeff, syms, k_max, last, pos)
    elif coeff < 0:
        low = _affine_expr(coeff, syms, k_min, last, pos)
        high = _affine_expr(coeff, syms, k_max, first, pos)
    else:
        low = _affine_expr(0, syms, k_min, None, pos)
        high = _affine_expr(0, syms, k_max, None, pos)
    return ArraySection(name, low, high)


def _affine_expr(
    coeff: int,
    syms: tuple[tuple[str, int], ...],
    const: int,
    point: Optional[A.Expr],
    pos,
) -> A.Expr:
    """Build ``coeff*point + syms + const`` as a bound expression."""
    expr: Optional[A.Expr] = None
    if coeff != 0 and point is not None:
        expr = _mul(coeff, point, pos)
    for name, k in syms:
        term = _mul(k, A.VarRef(pos, name), pos)
        expr = term if expr is None else _add(expr, term, pos)
    if expr is None:
        return A.IntLit(pos, const)
    if const > 0:
        expr = _add(expr, A.IntLit(pos, const), pos)
    elif const < 0:
        expr = _sub(expr, A.IntLit(pos, -const), pos)
    return expr


def _mul(k: int, e: A.Expr, pos) -> A.Expr:
    if isinstance(e, A.IntLit):
        return A.IntLit(pos, k * e.value)
    if k == 1:
        return e
    if k == -1:
        return A.Unary(pos, "-", e)
    return A.Binary(pos, "*", A.IntLit(pos, k), e)


def _add(a: A.Expr, b: A.Expr, pos) -> A.Expr:
    if isinstance(b, A.IntLit):
        return _offset(a, b.value, pos)
    if isinstance(a, A.IntLit):
        return _offset(b, a.value, pos)
    return A.Binary(pos, "+", a, b)


def _sub(a: A.Expr, b: A.Expr, pos) -> A.Expr:
    if isinstance(b, A.IntLit):
        return _offset(a, -b.value, pos)
    return A.Binary(pos, "-", a, b)


def _offset(e: A.Expr, k: int, pos) -> A.Expr:
    """``e + k`` with constant folding through trailing ``± literal``.

    Keeps synthesized bounds readable: the upper bound of an inclusive
    section over ``i < n - 1`` with a ``+1`` access offset folds to
    ``n - 1``, not ``n - 1 - 1 + 1``.
    """
    if isinstance(e, A.IntLit):
        return A.IntLit(pos, e.value + k)
    if (
        isinstance(e, A.Binary)
        and e.op in ("+", "-")
        and isinstance(e.right, A.IntLit)
    ):
        inner = e.right.value if e.op == "+" else -e.right.value
        return _offset(e.left, inner + k, pos)
    if k == 0:
        return e
    if k > 0:
        return A.Binary(pos, "+", e, A.IntLit(pos, k))
    return A.Binary(pos, "-", e, A.IntLit(pos, -k))


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


def _outermost_loops(node: A.Node) -> list[A.For]:
    """Outermost ``for`` loops under ``node`` (not descending into them)."""
    out: list[A.For] = []

    def scan(n: A.Node) -> None:
        if isinstance(n, A.For):
            out.append(n)
            return
        for child in n.children():
            scan(child)

    for child in node.children():
        scan(child)
    return out


def _contains_annotated(loop: A.For) -> bool:
    return any(l.annotation is not None for l in A.find_loops(loop.body))


def infer_method(method: A.Method) -> MethodInference:
    """Run inference over one method's bare loops.

    Placement policy: annotate a statically DOALL loop where it stands;
    for anything weaker, descend while some loop deeper in the nest is at
    least as promising (and at least plausibly parallel), otherwise
    annotate at the current level.  Loops that are hand-annotated, or
    contain a hand annotation, are never touched.
    """
    mi = MethodInference(method.name)
    order = {id(l): k for k, l in enumerate(A.find_loops(method.body))}
    props: dict[int, LoopProposal] = {}

    def propose(loop: A.For, depth: int) -> LoopProposal:
        p = props.get(id(loop))
        if p is None:
            p = propose_loop(method, loop, order[id(loop)], depth)
            props[id(loop)] = p
            mi.proposals.append(p)
        return p

    def subtree_best(loop: A.For, depth: int) -> float:
        best = SCORE_NONE
        for child in _outermost_loops(loop.body):
            if child.annotation is not None:
                continue
            best = max(
                best,
                propose(child, depth + 1).score,
                subtree_best(child, depth + 1),
            )
        return best

    def descend(loop: A.For, depth: int) -> None:
        for child in _outermost_loops(loop.body):
            decide(child, depth + 1)

    def decide(loop: A.For, depth: int) -> None:
        if loop.annotation is not None:
            mi.proposals.append(
                LoopProposal(
                    method=method.name,
                    loop=loop,
                    index=order[id(loop)],
                    depth=depth,
                    tag=TAG_HAND,
                    score=SCORE_NONE,
                    reason="already annotated; left untouched",
                )
            )
            return  # its interior belongs to the hand annotation
        if _contains_annotated(loop):
            mi.proposals.append(
                LoopProposal(
                    method=method.name,
                    loop=loop,
                    index=order[id(loop)],
                    depth=depth,
                    tag=TAG_CONTAINER,
                    score=SCORE_NONE,
                    reason="contains a hand-annotated loop; left untouched",
                )
            )
            descend(loop, depth)
            return
        p = propose(loop, depth)
        if p.score <= SCORE_NONE:
            descend(loop, depth)
            return
        best_below = subtree_best(loop, depth)
        if p.score >= SCORE_DOALL or best_below < max(p.score, SCORE_UNCERTAIN):
            p.chosen = True
            p.annotation = synthesize_annotation(p.analysis)
            return  # chosen: inner loops stay bare (the kernel owns them)
        descend(loop, depth)

    for loop in _outermost_loops(method.body):
        decide(loop, 0)
    mi.proposals.sort(key=lambda p: p.index)
    return mi


def infer_class(cls: A.ClassDecl) -> InferenceReport:
    """Infer annotations for every method of ``cls``, applying them.

    Chosen proposals are attached to their loops in place (so the class
    can be translated directly afterwards); the report records every
    loop's verdict and, once compiled, the translated loop ids so
    profiler confirmations can be folded back in.
    """
    report = InferenceReport()
    for method in cls.methods:
        mi = infer_method(method)
        if mi.proposals:
            report.methods[method.name] = mi
        for p in mi.chosen:
            p.loop.annotation = p.annotation
        by_node = {id(p.loop): p for p in mi.proposals}
        for ordinal, loop in enumerate(A.annotated_loops(method)):
            p = by_node.get(id(loop))
            if p is not None:
                p.loop_id = f"{method.name}#{ordinal}"
    return report
