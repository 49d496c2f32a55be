"""Inter-warp analysis: TD reachability across warps.

Used by the mode-B (GPU-TLS) recovery path: after a violation in warp
``w*``, the scheduler asks whether the *following* warps contain true
dependencies according to the profile; if not, it relaunches the kernel
on the GPU from ``w*``, otherwise those warps run sequentially on the CPU
first (paper §V-A).
"""

from __future__ import annotations

from .report import DependencyProfile


def next_warps_clear(
    profile: DependencyProfile,
    from_warp: int,
    lookahead: int,
) -> bool:
    """True when warps ``from_warp .. from_warp+lookahead-1`` have no TD.

    ``lookahead`` is the "following several warps" window the paper's
    scheduler inspects before handing control back to the GPU.
    """
    window = range(from_warp, from_warp + max(lookahead, 1))
    return not any(w in profile.td_warps for w in window)
