"""Matrix products that sum in the kernels' order.

Each output cell accumulates its terms left to right from 0.0, as the
Table-II kernels' ``acc += ...`` loops do, so the references match them
bit for bit.  ``@`` and ``np.dot`` would reassociate the sums.
"""

from __future__ import annotations

import numpy as np


def matvec(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``A y``: row ``i`` sums ``A[i, j] * y[j]`` over ``j`` in order."""
    acc = np.zeros(A.shape[0])
    for j in range(A.shape[1]):
        acc = acc + A[:, j] * y[j]
    return acc


def matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x y``: cell ``(i, j)`` sums ``x[i, k] * y[k, j]`` over ``k`` in
    order."""
    acc = np.zeros((x.shape[0], y.shape[1]))
    for k in range(x.shape[1]):
        acc = acc + x[:, k : k + 1] * y[k]
    return acc
