"""The code translator: annotated Java source -> dual executable parts.

For every annotated loop the translator produces:

* the static analysis result (variable classes, dependence verdict),
* the kernel IR (executed by both device models),
* the generated CUDA and multithreaded-Java source texts, on first read
  (a traced compile reads them to put their line counts on its spans),
* the data-movement plan (copyin/copyout/create),
* kernel metadata: element width and a static coalescing estimate used
  until the profiler refines it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from ..analysis.classify import LoopAnalysis, LoopStatus, analyze_loop
from ..analysis.symbols import MethodScope, outer_scopes
from ..errors import LoweringError, nesting_guard
from ..ir.instructions import IRFunction
from ..ir.lower import lower_loop_body
from ..lang import ast_nodes as A
from ..lang.annotations import Annotation
from ..lang.parser import parse_program
from ..obs.metrics import NULL_INSTRUMENTATION, Instrumentation
from ..obs.tracer import PHASE_ANALYZE, PHASE_PARSE, PHASE_TRANSLATE
from .codegen_cuda import generate_cuda_kernel
from .codegen_java import generate_java_threads
from .datamove import DataPlan, build_data_plan

_ELEM_BYTES = {"int": 4, "long": 8, "float": 4, "double": 8, "boolean": 1}


@dataclass
class TranslatedLoop:
    """Everything the runtime needs to execute one annotated loop."""

    id: str
    method: str
    ordinal: int  # position among the method's annotated loops
    annotation: Annotation
    analysis: LoopAnalysis
    fn: Optional[IRFunction]  # None when the loop must stay sequential
    data_plan: DataPlan
    elem_bytes: float
    static_coalescing: float
    cpu_threads: int  # workers of the generated Java text
    cpu_only_reason: str = ""

    @cached_property
    def cuda_source(self) -> str:
        """The CUDA kernel and host stub, generated on first read."""
        with nesting_guard(self.id):
            return generate_cuda_kernel(
                self.id.replace("#", "_kernel"), self.analysis, self.data_plan
            )

    @cached_property
    def java_source(self) -> str:
        """The multithreaded Java text, generated on first read."""
        with nesting_guard(self.id):
            return generate_java_threads(
                self.id, self.analysis, self.cpu_threads
            )

    @property
    def is_static_doall(self) -> bool:
        return self.analysis.status is LoopStatus.DOALL

    @property
    def needs_profiling(self) -> bool:
        return self.analysis.status is LoopStatus.UNCERTAIN

    @property
    def cpu_only(self) -> bool:
        return self.fn is None


@dataclass
class MethodTranslation:
    """All annotated loops of one method, in order."""

    method: A.Method
    loops: list[TranslatedLoop] = field(default_factory=list)

    @property
    def scheme(self) -> str:
        """The scheduling scheme for the method (first explicit wins)."""
        for loop in self.loops:
            if loop.annotation.scheme_explicit:
                return loop.annotation.scheme
        return self.loops[0].annotation.scheme if self.loops else "sharing"


@dataclass
class TranslationUnit:
    """Translation result for a whole class."""

    class_decl: A.ClassDecl
    methods: dict[str, MethodTranslation] = field(default_factory=dict)

    def loop(self, loop_id: str) -> TranslatedLoop:
        for mt in self.methods.values():
            for tl in mt.loops:
                if tl.id == loop_id:
                    return tl
        raise KeyError(f"no translated loop {loop_id!r}")

    @property
    def all_loops(self) -> list[TranslatedLoop]:
        return [tl for mt in self.methods.values() for tl in mt.loops]


class Translator:
    """Static analysis + lowering + code generation for a source class."""

    def __init__(
        self,
        cpu_threads: int = 16,
        obs: Optional[Instrumentation] = None,
    ):
        self.cpu_threads = cpu_threads
        self.obs = obs or NULL_INSTRUMENTATION

    def translate_source(self, source: str) -> TranslationUnit:
        with self.obs.tracer.span(
            "parse", PHASE_PARSE, chars=len(source)
        ) as sp:
            cls = parse_program(source)
            sp.annotate(cls=cls.name, methods=len(cls.methods))
        return self.translate(cls)

    def translate(self, cls: A.ClassDecl) -> TranslationUnit:
        unit = TranslationUnit(cls)
        for method in cls.methods:
            mt = MethodTranslation(method)
            loops = A.annotated_loops(method)
            scopes = outer_scopes(method, loops)
            for ordinal, loop in enumerate(loops):
                mt.loops.append(self._translate_loop(
                    method, loop, ordinal, scopes[id(loop)]
                ))
            if mt.loops:
                unit.methods[method.name] = mt
        self.obs.metrics.counter("translate.loops").inc(len(unit.all_loops))
        return unit

    def _translate_loop(
        self, method: A.Method, loop: A.For, ordinal: int,
        scope: MethodScope,
    ) -> TranslatedLoop:
        loop_id = f"{method.name}#{ordinal}"
        with nesting_guard(loop_id), self.obs.tracer.span(
            f"analyze:{loop_id}", PHASE_ANALYZE, loop=loop_id
        ) as sp:
            analysis = analyze_loop(method, loop, scope)
            sp.annotate(
                status=analysis.status.name,
                accesses=len(analysis.accesses),
            )
        with nesting_guard(loop_id), self.obs.tracer.span(
            f"translate:{loop_id}", PHASE_TRANSLATE, loop=loop_id
        ) as tr_span:
            return self._lower_and_generate(
                method, loop, ordinal, loop_id, analysis, tr_span
            )

    def _lower_and_generate(
        self,
        method: A.Method,
        loop: A.For,
        ordinal: int,
        loop_id: str,
        analysis: LoopAnalysis,
        tr_span,
    ) -> TranslatedLoop:
        self._validate_private_clause(loop_id, loop.annotation, analysis)
        plan = build_data_plan(loop.annotation, analysis)

        fn: Optional[IRFunction] = None
        cpu_only_reason = ""
        if analysis.scalar_live_outs:
            cpu_only_reason = (
                "scalar live-out(s) "
                f"{sorted(analysis.scalar_live_outs)} carry a loop "
                "dependence; the loop runs sequentially on the CPU"
            )
        else:
            try:
                fn = lower_loop_body(
                    loop,
                    analysis.outer_types,
                    analysis.info.index,
                    name=loop_id.replace("#", "_k"),
                )
            except LoweringError as exc:
                cpu_only_reason = str(exc)

        tl = TranslatedLoop(
            id=loop_id,
            method=method.name,
            ordinal=ordinal,
            annotation=loop.annotation,
            analysis=analysis,
            fn=fn,
            data_plan=plan,
            elem_bytes=self._elem_bytes(analysis),
            static_coalescing=self._static_coalescing(analysis),
            cpu_threads=self.cpu_threads,
            cpu_only_reason=cpu_only_reason,
        )
        if self.obs.tracer.enabled:
            tr_span.annotate(
                cpu_only=fn is None,
                cuda_lines=tl.cuda_source.count("\n"),
                java_lines=tl.java_source.count("\n"),
            )
        return tl

    @staticmethod
    def _validate_private_clause(
        loop_id: str, annotation, analysis: LoopAnalysis
    ) -> None:
        """Table I ``private(list)``: every name must be a variable the
        loop can see.  Variables declared inside the loop are implicitly
        private already (the paper's ``temp`` class), so listing them is
        allowed but redundant; unknown names are user errors."""
        from ..errors import AnnotationError

        known = (
            set(analysis.outer_types)
            | analysis.variables.temp
            | {analysis.info.index}
        )
        for name in annotation.private:
            if name not in known:
                raise AnnotationError(
                    f"loop {loop_id}: private({name}) names an unknown "
                    f"variable"
                )

    @staticmethod
    def _elem_bytes(analysis: LoopAnalysis) -> float:
        """Dominant element width among the loop's arrays."""
        widths = [
            _ELEM_BYTES[t.elem.name]
            for name, t in analysis.outer_types.items()
            if isinstance(t, A.ArrayType)
            and name in (analysis.arrays_read() | analysis.arrays_written())
        ]
        return float(max(widths)) if widths else 8.0

    @staticmethod
    def _static_coalescing(analysis: LoopAnalysis) -> float:
        """Coalescing estimate from the affine access forms.

        Adjacent threads differ by 1 in the loop index: an access whose
        fastest-varying subscript has index coefficient 1 (and whose
        leading subscript is index-free for 2-D arrays) coalesces
        perfectly; index-free accesses broadcast; anything else degrades.
        """
        scores: list[float] = []
        for acc in analysis.accesses:
            if not acc.affine:
                scores.append(0.15)  # irregular: scattered transactions
                continue
            last = acc.forms[-1]
            leading_strided = any(f.coeff != 0 for f in acc.forms[:-1])
            if leading_strided:
                scores.append(0.25)
            elif last.coeff == 0:
                scores.append(1.0)  # broadcast / loop-invariant cell
            elif abs(last.coeff) == 1:
                scores.append(1.0)
            else:
                scores.append(max(1.0 / min(abs(last.coeff), 8), 0.125))
        if not scores:
            return 1.0
        return sum(scores) / len(scores)
