"""The sharing-scheme boundary: Cg*Fg / (Cg*Fg + Cc*Fc).

"Iterations before the boundary are preferential to be executed on GPU
... the iterations beyond the boundary are more suited to the CPU."
"""

from __future__ import annotations

from typing import Sequence

from ..runtime.platform import Platform


def boundary_fraction(platform: Platform) -> float:
    """The paper's boundary value in (0, 1)."""
    return platform.sharing_boundary()


def split_at_boundary(
    indices: Sequence[int], fraction: float
) -> tuple[Sequence[int], Sequence[int]]:
    """Split an iteration space: ``[0, k)`` to GPU (ascending), ``[k, n)``
    to CPU (to be walked in descending order), as slices of it."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"boundary fraction {fraction} out of [0, 1]")
    k = int(round(len(indices) * fraction))
    return indices[:k], indices[k:]
