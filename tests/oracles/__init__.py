"""Scalar oracles of the SE-log analyses, the commit, the DC volume and
the log's array-id numbering (:func:`first_seen_codes`), the hand-written
lexer (:func:`tokenize_oracle`) and the recursive AST walk
(:func:`walk_recursive`).

Production reads one speculative-log format, :class:`repro.ir.columnar.
ColumnarLanes`.  These are the original per-record implementations over
``{iteration: LaneSpecState}`` mappings (the interpreter's own output,
:func:`interpreter_lanes`, or a ``ColumnarLanes`` read back through
:func:`as_states`), kept here so the equivalence suites can hold
production to them.  They import only numpy and ``repro``: the
host-perf bench runs them with numpy alone installed.
"""

from .coalesce import estimate_coalescing_scalar
from .commit import commit_scalar, logged_accesses_scalar
from .density import analyze_lanes_scalar
from .depcheck import check_subloop_scalar
from .lanes import as_states, first_seen_codes, interpreter_lanes
from .lexer import tokenize_oracle
from .walk import walk_recursive

__all__ = [
    "analyze_lanes_scalar",
    "as_states",
    "check_subloop_scalar",
    "commit_scalar",
    "estimate_coalescing_scalar",
    "first_seen_codes",
    "interpreter_lanes",
    "logged_accesses_scalar",
    "tokenize_oracle",
    "walk_recursive",
]
