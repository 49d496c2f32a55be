"""Affine compression of array subscripts.

Rule (1) of the paper's static analysis: "we compress the memory accesses
into a linear constraint in terms of loop iteration ID".  A subscript is
compressed to::

    coeff * i + (sum of sym terms) + const

where ``i`` is the loop induction variable and sym terms are
loop-invariant scalars.  Subscripts that cannot be compressed (indirect
accesses ``a[idx[i]]``, products of the index, modulo patterns) return
``None`` and are "marked for profiling".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang import ast_nodes as A


@dataclass(frozen=True)
class LinForm:
    """``coeff * i + syms + const`` with syms a sorted tuple of (name, k)."""

    coeff: int
    syms: tuple[tuple[str, int], ...]
    const: int

    @property
    def invariant(self) -> bool:
        """True when the form does not involve the loop index."""
        return self.coeff == 0

    def __add__(self, other: "LinForm") -> "LinForm":
        return LinForm(
            self.coeff + other.coeff,
            _merge(self.syms, other.syms, 1),
            self.const + other.const,
        )

    def __sub__(self, other: "LinForm") -> "LinForm":
        return LinForm(
            self.coeff - other.coeff,
            _merge(self.syms, other.syms, -1),
            self.const - other.const,
        )

    def scale(self, factor: int) -> "LinForm":
        return LinForm(
            self.coeff * factor,
            tuple((n, k * factor) for n, k in self.syms if k * factor != 0),
            self.const * factor,
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        if self.coeff:
            parts.append(f"{self.coeff}*i")
        parts.extend(f"{k}*{n}" for n, k in self.syms)
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def _merge(a, b, sign: int) -> tuple[tuple[str, int], ...]:
    out: dict[str, int] = dict(a)
    for name, k in b:
        out[name] = out.get(name, 0) + sign * k
    return tuple(sorted((n, k) for n, k in out.items() if k != 0))


CONST_ZERO = LinForm(0, (), 0)


def compress(
    expr: A.Expr,
    index: str,
    temps: frozenset[str] | set[str],
) -> Optional[LinForm]:
    """Compress ``expr`` into a :class:`LinForm`, or None if irresolvable.

    ``temps`` are variables declared inside the loop: references to them
    (other than the induction variable itself) defeat compression because
    their values are not loop-invariant.
    """
    if isinstance(expr, A.IntLit):
        return LinForm(0, (), expr.value)
    if isinstance(expr, A.VarRef):
        if expr.name == index:
            return LinForm(1, (), 0)
        if expr.name in temps:
            return None
        return LinForm(0, ((expr.name, 1),), 0)
    if isinstance(expr, A.Length):
        from ..ir.lower import length_param

        return LinForm(0, ((length_param(expr.array.name, expr.axis), 1),), 0)
    if isinstance(expr, A.Unary) and expr.op == "-":
        inner = compress(expr.operand, index, temps)
        return None if inner is None else inner.scale(-1)
    if isinstance(expr, A.Cast) and expr.target.name in ("int", "long"):
        # Width-changing casts are treated as identity for subscripts,
        # which are assumed in-range (checked dynamically anyway).
        return compress(expr.operand, index, temps)
    if isinstance(expr, A.Binary):
        if expr.op == "+":
            a = compress(expr.left, index, temps)
            b = compress(expr.right, index, temps)
            return None if a is None or b is None else a + b
        if expr.op == "-":
            a = compress(expr.left, index, temps)
            b = compress(expr.right, index, temps)
            return None if a is None or b is None else a - b
        if expr.op == "*":
            a = compress(expr.left, index, temps)
            b = compress(expr.right, index, temps)
            if a is None or b is None:
                return None
            if not a.syms and a.coeff == 0:
                return b.scale(a.const)
            if not b.syms and b.coeff == 0:
                return a.scale(b.const)
            return None  # symbolic coefficient: not linear in a testable way
    return None


def forms_key(forms: tuple[Optional[LinForm], ...]) -> Optional[tuple]:
    """Hashable identity of a fully-affine subscript tuple (else None)."""
    if any(f is None for f in forms):
        return None
    return tuple((f.coeff, f.syms, f.const) for f in forms)
