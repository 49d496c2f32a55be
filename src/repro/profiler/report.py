"""Profile report: the dependency-density summary the scheduler consumes."""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default threshold N of the workflow diagram ("(Density > N) ? High : Low").
DEFAULT_DD_THRESHOLD = 0.30


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
    #: iteration distance histogram for true dependencies
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
    #: effective memory coalescing estimated from the address traces
    coalescing: float = 1.0
    #: simulated seconds spent profiling (instrumented run + analysis)
    profile_time_s: float = 0.0

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
