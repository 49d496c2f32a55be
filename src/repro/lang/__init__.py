"""Mini-Java frontend: lexer, parser, AST, and acc annotations."""

from . import ast_nodes
from .annotations import (
    Annotation,
    ArraySection,
    annotation_equal,
    parse_annotation,
    section_equal,
    section_key,
)
from .ast_nodes import (
    ClassDecl,
    For,
    Method,
    annotated_loops,
    find_loops,
    strip_annotations,
    walk,
)
from .lexer import tokenize
from .parser import Parser, parse_program
from .pretty import fmt_class, fmt_expr, fmt_method, fmt_stmt, format_annotation
from .tokens import Pos, TokKind, Token

__all__ = [
    "Annotation",
    "ArraySection",
    "ClassDecl",
    "For",
    "Method",
    "Parser",
    "Pos",
    "TokKind",
    "Token",
    "annotated_loops",
    "annotation_equal",
    "ast_nodes",
    "find_loops",
    "fmt_class",
    "fmt_expr",
    "fmt_method",
    "fmt_stmt",
    "format_annotation",
    "parse_annotation",
    "parse_program",
    "section_equal",
    "section_key",
    "strip_annotations",
    "tokenize",
    "walk",
]
