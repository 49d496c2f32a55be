"""Dynamic profiler: dependency density, warp analysis, coalescing."""

from .coalesce import estimate_coalescing
from .density import analyze_lanes
from .interwarp import next_warps_clear
from .report import DEFAULT_DD_THRESHOLD, DependencyProfile
from .trace import INSTRUMENTATION_FACTOR, ProfilingRun, profile_loop

__all__ = [
    "DEFAULT_DD_THRESHOLD",
    "DependencyProfile",
    "INSTRUMENTATION_FACTOR",
    "ProfilingRun",
    "analyze_lanes",
    "estimate_coalescing",
    "next_warps_clear",
    "profile_loop",
]
