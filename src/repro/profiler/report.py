"""Profile report: the dependency-density summary the scheduler consumes."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import Optional

#: Default threshold N of the workflow diagram ("(Density > N) ? High : Low").
DEFAULT_DD_THRESHOLD = 0.30


class DepPair:
    """One observed cross-iteration dependence (src writes, dst touches).

    A plain ``__slots__`` class, immutable by convention, with the
    ``repr``, ``==`` and ``hash`` a frozen dataclass would have: a
    profile holds up to 4,096 of them, and a dataclass ``__init__`` pays
    ``object.__setattr__`` per field.  Being immutable, a pair copies as
    itself.
    """

    __slots__ = ("array", "src_iter", "dst_iter", "kind", "same_warp")

    def __init__(
        self, array: str, src_iter: int, dst_iter: int, kind: str,
        same_warp: bool,
    ):
        self.array = array
        self.src_iter = src_iter
        self.dst_iter = dst_iter
        self.kind = kind  # 'true' | 'anti' | 'output'
        self.same_warp = same_warp

    def _fields(self) -> tuple:
        return (self.array, self.src_iter, self.dst_iter, self.kind,
                self.same_warp)

    def __repr__(self) -> str:
        return (
            f"DepPair(array={self.array!r}, src_iter={self.src_iter!r}, "
            f"dst_iter={self.dst_iter!r}, kind={self.kind!r}, "
            f"same_warp={self.same_warp!r})"
        )

    def __eq__(self, other):
        if other.__class__ is not DepPair:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return DepPair, self._fields()

    def __copy__(self) -> "DepPair":
        return self

    def __deepcopy__(self, memo) -> "DepPair":
        return self

    @property
    def distance(self) -> int:
        return self.dst_iter - self.src_iter


@dataclass
class DependencyProfile:
    """Dynamic dependency profile of one loop (paper §II, Profiler).

    ``td_density`` follows the quantitative model of von Praun et al.:
    the fraction of iterations that carry at least one incoming true
    (flow) dependence.  ``fd_density`` is the analogue over false
    (anti/output) dependencies that are not also true dependencies.
    """

    iterations: int
    td_density: float = 0.0
    fd_density: float = 0.0
    td_pairs: int = 0
    fd_pairs: int = 0
    intra_warp_td: int = 0
    inter_warp_td: int = 0
    #: iteration distance histogram for true dependencies (capped)
    td_distances: dict[int, int] = field(default_factory=dict)
    #: warp ids (by lane position) containing at least one TD target
    td_warps: set[int] = field(default_factory=set)
    #: arrays carrying TDs / FDs
    td_arrays: set[str] = field(default_factory=set)
    fd_arrays: set[str] = field(default_factory=set)
    #: arrays whose write-cell set is identical in every iteration
    #: (enables the renamed-privatization fast path: the last iteration
    #: overwrites every cell any iteration wrote)
    uniform_write_arrays: set[str] = field(default_factory=set)
    #: sampled dependence pairs for diagnostics (capped)
    sample_pairs: list[DepPair] = field(default_factory=list)
    #: effective memory coalescing estimated from the address traces
    coalescing: float = 1.0
    #: SD3-style stride compression ratio of the access logs (raw
    #: entries / compressed patterns); quantifies profiling memory cost
    compression_ratio: float = 1.0
    #: simulated seconds spent profiling (instrumented run + analysis)
    profile_time_s: float = 0.0

    def __deepcopy__(self, memo) -> "DependencyProfile":
        """A profile whose sets, dicts and lists are fresh; their items
        (ints, strings, :class:`DepPair`) are immutable and shared."""
        out = copy.copy(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (dict, set, list)):
                setattr(out, f.name, copy.copy(value))
        return out

    @property
    def has_true(self) -> bool:
        return self.td_pairs > 0

    @property
    def has_false(self) -> bool:
        return self.fd_pairs > 0

    def density_class(self, threshold: float = DEFAULT_DD_THRESHOLD) -> str:
        """'zero' | 'low' | 'high' classification of the TD density."""
        if not self.has_true:
            return "zero"
        return "high" if self.td_density > threshold else "low"

    @property
    def privatizable_arrays(self) -> set[str]:
        """Arrays safe to privatize: carry FDs but no TDs."""
        return self.fd_arrays - self.td_arrays

    @property
    def privatizable(self) -> bool:
        """True when every dependence-carrying array is privatizable."""
        return self.has_false and not self.has_true
