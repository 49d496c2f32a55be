"""GPU-TLS: speculative loop execution and privatization."""

from .depcheck import DcResult, Violation, check_subloop
from .engine import DC_COST_PER_ENTRY, GpuTlsEngine, TlsConfig, TlsResult, TlsStats
from .privatize import PRIVATIZATION_OVERHEAD, PrivatizeResult, run_privatized
from .recovery import (
    DEFAULT_LOOKAHEAD_WARPS,
    RecoveryAction,
    RecoveryDecision,
    decide_recovery,
)
from .speculate import SE_OVERHEAD, SeResult, speculative_run

__all__ = [
    "DC_COST_PER_ENTRY",
    "DEFAULT_LOOKAHEAD_WARPS",
    "DcResult",
    "GpuTlsEngine",
    "PRIVATIZATION_OVERHEAD",
    "PrivatizeResult",
    "RecoveryAction",
    "RecoveryDecision",
    "SE_OVERHEAD",
    "SeResult",
    "TlsConfig",
    "TlsResult",
    "TlsStats",
    "Violation",
    "check_subloop",
    "decide_recovery",
    "run_privatized",
    "speculative_run",
]
