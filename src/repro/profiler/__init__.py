"""Dynamic profiler: dependency density, warp analysis, coalescing."""

from .coalesce import estimate_coalescing
from .density import analyze_lanes
from .interwarp import next_warps_clear, td_free_prefix, warps_with_td
from .intrawarp import classify_same_warp, warp_span
from .report import DEFAULT_DD_THRESHOLD, DepPair, DependencyProfile
from .strides import compression_ratio
from .trace import INSTRUMENTATION_FACTOR, ProfilingRun, profile_loop

__all__ = [
    "DEFAULT_DD_THRESHOLD",
    "DepPair",
    "DependencyProfile",
    "INSTRUMENTATION_FACTOR",
    "ProfilingRun",
    "analyze_lanes",
    "compression_ratio",
    "classify_same_warp",
    "estimate_coalescing",
    "next_warps_clear",
    "profile_loop",
    "td_free_prefix",
    "warp_span",
    "warps_with_td",
]
