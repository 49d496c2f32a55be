"""Static analysis: symbols, canonical loops, affine accesses, dependences."""

from .affine import CONST_ZERO, LinForm, compress, forms_key
from .classify import (
    LoopAnalysis,
    LoopStatus,
    VariableClasses,
    analyze_loop,
)
from .consteval import eval_int, eval_invariant
from .deps import (
    Access,
    DepKind,
    PairOutcome,
    PairVerdict,
    StaticDep,
    collect_accesses,
    pair_test,
)
from .infer import (
    InferenceReport,
    LoopProposal,
    MethodInference,
    infer_class,
    infer_method,
    propose_loop,
    synthesize_annotation,
)
from .loopinfo import LoopInfo, extract_loop_info
from .symbols import (
    MethodScope,
    declared_inside,
    method_types,
    outer_scope_at_loop,
)

__all__ = [
    "Access",
    "CONST_ZERO",
    "DepKind",
    "InferenceReport",
    "LinForm",
    "LoopAnalysis",
    "LoopInfo",
    "LoopProposal",
    "LoopStatus",
    "MethodInference",
    "MethodScope",
    "PairOutcome",
    "PairVerdict",
    "StaticDep",
    "VariableClasses",
    "analyze_loop",
    "collect_accesses",
    "compress",
    "declared_inside",
    "eval_int",
    "eval_invariant",
    "extract_loop_info",
    "forms_key",
    "infer_class",
    "infer_method",
    "method_types",
    "outer_scope_at_loop",
    "pair_test",
    "propose_loop",
    "synthesize_annotation",
]
