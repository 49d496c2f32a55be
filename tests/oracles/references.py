"""Oracles of the Table-II references: the per-element loops.

Each function is the reference its workload module carried before the
references became whole-array NumPy, kept verbatim so the reference
suite can hold the production references to them array for array,
down to the bytes.  One deliberate change: :func:`blackscholes_loops`
evaluates ``log`` and ``exp`` per element through :mod:`math`, as Java's
``Math.log``/``Math.exp`` are evaluated everywhere else in the project.
They import only numpy.
"""

from __future__ import annotations

import math

import numpy as np


def bfs_loops(bindings: dict) -> dict[str, np.ndarray]:
    row_start = np.asarray(bindings["rowStart"], dtype=np.int64)
    adj = np.asarray(bindings["adjList"], dtype=np.int64)
    dist = np.asarray(bindings["dist"], dtype=np.int32).copy()
    n = bindings["n"]
    for _level in range(bindings["maxDepth"]):
        new = dist.copy()
        for i in range(n):
            nbs = adj[row_start[i] : row_start[i + 1]]
            if len(nbs):
                cand = dist[nbs].min() + 1
                if cand < new[i]:
                    new[i] = cand
        dist = new
    return {"dist": dist, "distNew": dist.copy()}


def cfd_loops(bindings: dict) -> dict[str, np.ndarray]:
    density = np.asarray(bindings["density"], dtype=np.float64).copy()
    momx = np.asarray(bindings["momX"], dtype=np.float64)
    momy = np.asarray(bindings["momY"], dtype=np.float64)
    energy = np.asarray(bindings["energy"], dtype=np.float64).copy()
    nb = np.asarray(bindings["nbIndex"], dtype=np.int64)
    n = bindings["n"]
    nnb = bindings["nnb"]
    flux = np.zeros(n)
    scratch = np.zeros(3)
    for _t in range(bindings["sweeps"]):
        for i in range(n):
            scratch[0] = density[i] * momx[i]
            scratch[1] = density[i] * momy[i]
            scratch[2] = energy[i] * 0.4
            acc = scratch[0] + scratch[1] + scratch[2]
            for k in range(nnb):
                j = nb[i * nnb + k]
                contrib = density[j] * 0.5 + energy[j] * 0.25
                acc += contrib - momx[j] * momy[j] * 0.125
            flux[i] = acc
        for i in range(n):
            density[i] = density[i] * 0.995 + flux[i] * 0.005
            energy[i] = energy[i] * 0.999 + flux[i] * 0.001
    return {
        "flux": flux,
        "scratch": scratch.copy(),
        "density": density,
        "energy": energy,
    }


def mvt_loops(bindings: dict) -> dict[str, np.ndarray]:
    A = np.asarray(bindings["A"], dtype=np.float64)
    x1 = np.asarray(bindings["x1"], dtype=np.float64).copy()
    x2 = np.asarray(bindings["x2"], dtype=np.float64).copy()
    y1 = np.asarray(bindings["y1"], dtype=np.float64)
    y2 = np.asarray(bindings["y2"], dtype=np.float64)
    n = bindings["n"]
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += A[i, j] * y1[j]
        x1[i] += acc
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += A[j, i] * y2[j]
        x2[i] += acc
    return {"x1": x1, "x2": x2}


def bicg_loops(bindings: dict) -> dict[str, np.ndarray]:
    A = np.asarray(bindings["A"], dtype=np.float64)
    p = np.asarray(bindings["p"], dtype=np.float64)
    r = np.asarray(bindings["r"], dtype=np.float64)
    n = bindings["n"]
    q = np.zeros(n)
    s = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += A[i, j] * p[j]
        q[i] = acc
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += A[j, i] * r[j]
        s[i] = acc
    return {"q": q, "s": s}


def gemm_loops(bindings: dict) -> dict[str, np.ndarray]:
    A = np.asarray(bindings["A"], dtype=np.float64)
    B = np.asarray(bindings["B"], dtype=np.float64)
    C = np.asarray(bindings["C"], dtype=np.float64)
    # match the kernel's accumulation order: plain left-to-right dot
    n = bindings["n"]
    out = C.copy()
    for i in range(n):
        acc = np.zeros(n)
        for k in range(n):
            acc = acc + A[i, k] * B[k]
        out[i] = bindings["alpha"] * acc + bindings["beta"] * C[i]
    return {"C": out}


def twomm_loops(bindings: dict) -> dict[str, np.ndarray]:
    A = np.asarray(bindings["A"], dtype=np.float64)
    B = np.asarray(bindings["B"], dtype=np.float64)
    C = np.asarray(bindings["C"], dtype=np.float64)
    n = bindings["n"]

    def mm(x, y):
        out = np.zeros((n, n))
        for i in range(n):
            acc = np.zeros(n)
            for k in range(n):
                acc = acc + x[i, k] * y[k]
            out[i] = acc
        return out

    D = mm(A, B)
    E = mm(C, D)
    return {"D": D, "E": E}


def gauss_seidel_loops(bindings: dict) -> dict[str, np.ndarray]:
    A = np.asarray(bindings["A"], dtype=np.float64).copy()
    n = bindings["n"]
    for _t in range(bindings["sweeps"]):
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                A[i, j] = 0.2 * (
                    A[i, j] + A[i - 1, j] + A[i + 1, j] + A[i, j - 1] + A[i, j + 1]
                )
    return {"A": A}


def _cnd(d: np.ndarray) -> np.ndarray:
    a = np.abs(d)
    w = 1.0 / (1.0 + 0.2316419 * a)
    poly = w * (
        0.31938153
        + w * (-0.356563782 + w * (1.781477937 + w * (-1.821255978 + w * 1.330274429)))
    )
    nd = 1.0 - 0.39894228040143267 * _exp(-0.5 * a * a) * poly
    return np.where(d >= 0.0, nd, 1.0 - nd)


def _exp(x: np.ndarray) -> np.ndarray:
    return np.array([math.exp(v) for v in x.tolist()], dtype=np.float64)


def _log(x: np.ndarray) -> np.ndarray:
    return np.array([math.log(v) for v in x.tolist()], dtype=np.float64)


def blackscholes_loops(bindings: dict) -> dict[str, np.ndarray]:
    s = np.asarray(bindings["price"], dtype=np.float64)
    k = np.asarray(bindings["strike"], dtype=np.float64)
    t = np.asarray(bindings["maturity"], dtype=np.float64)
    look = np.asarray(bindings["lookback"], dtype=np.int64)
    rate = bindings["rate"]
    vol = bindings["vol"]
    n = bindings["n"]

    sq = vol * np.sqrt(t)
    d1 = (_log(s / k) + (rate + 0.5 * vol * vol) * t) / sq
    d2 = d1 - sq
    nd1 = _cnd(d1)
    nd2 = _cnd(d2)
    disc = k * _exp(-rate * t)
    call = s * nd1 - disc * nd2
    put = disc * (1.0 - nd2) - s * (1.0 - nd1)

    audit = np.zeros(2 * n)
    call_out = np.zeros(n)
    for i in range(n):  # the audit chain is inherently sequential
        prior = audit[look[i]]
        call_out[i] = call[i] + prior * 1.0e-9
        audit[i] = call[i] + put[i]
    return {"callOut": call_out, "putOut": put, "audit": audit}


#: workload name -> its loop oracle
LOOP_REFERENCES = {
    "BFS": bfs_loops,
    "CFD": cfd_loops,
    "MVT": mvt_loops,
    "BICG": bicg_loops,
    "GEMM": gemm_loops,
    "2MM": twomm_loops,
    "Guass-Seidel": gauss_seidel_loops,
    "BlackScholes": blackscholes_loops,
}
