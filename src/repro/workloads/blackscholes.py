"""BlackScholes (Intel RMS) — sharing, mode B (GPU-TLS).

Paper input: ``n*5120`` options, serial 121.3 ms; "the profiler detects
little true dependency in it (the data dependency value measured in our
experiment is about 0.012), therefore, our system uses GPU-TLS (mode B)
... speedup over sequential execution is ... 5.1 times".

Besides the standard European-option pricing (closed-form with a
polynomial cumulative-normal approximation), every iteration publishes
its result into an audit buffer, and a sparse subset of iterations folds
in an audit value produced many iterations earlier through a precomputed
``lookback`` index table.  The indirection defeats static analysis; the
profiler measures a TD density of ~0.01 (one target per 83 iterations),
putting the loop squarely in mode B.  A few deliberately short lookback
distances make a handful of genuine mis-speculations occur, exercising
the full SE/DC/commit/recovery pipeline on a real workload.
"""

from __future__ import annotations

import math

import numpy as np

from .base import Workload

SOURCE = """
class BlackScholes {
  static void run(double[] price, double[] strike, double[] maturity,
                  double[] callOut, double[] putOut, double[] audit,
                  int[] lookback, double rate, double vol, int n) {
    /* acc parallel scheme(sharing) */
    for (int i = 0; i < n; i++) {
      double s = price[i];
      double k = strike[i];
      double t = maturity[i];
      double sq = vol * Math.sqrt(t);
      double d1 = (Math.log(s / k) + (rate + 0.5 * vol * vol) * t) / sq;
      double d2 = d1 - sq;
      double a1 = Math.abs(d1);
      double w1 = 1.0 / (1.0 + 0.2316419 * a1);
      double poly1 = w1 * (0.31938153 + w1 * (-0.356563782
                     + w1 * (1.781477937 + w1 * (-1.821255978
                     + w1 * 1.330274429))));
      double nd1 = 1.0 - 0.39894228040143267 * Math.exp(-0.5 * a1 * a1) * poly1;
      nd1 = d1 >= 0.0 ? nd1 : 1.0 - nd1;
      double a2 = Math.abs(d2);
      double w2 = 1.0 / (1.0 + 0.2316419 * a2);
      double poly2 = w2 * (0.31938153 + w2 * (-0.356563782
                     + w2 * (1.781477937 + w2 * (-1.821255978
                     + w2 * 1.330274429))));
      double nd2 = 1.0 - 0.39894228040143267 * Math.exp(-0.5 * a2 * a2) * poly2;
      nd2 = d2 >= 0.0 ? nd2 : 1.0 - nd2;
      double disc = k * Math.exp(-rate * t);
      double call = s * nd1 - disc * nd2;
      double put = disc * (1.0 - nd2) - s * (1.0 - nd1);
      double prior = audit[lookback[i]];
      callOut[i] = call + prior * 1.0e-9;
      putOut[i] = put;
      audit[i] = call + put;
    }
  }
}
"""

#: the audit read period (1 target every PERIOD iterations -> DD ~ 0.012)
PERIOD = 83
#: lookback distance; larger than any TLS sub-loop so speculation succeeds
DISTANCE = 1152
#: a few short-distance entries that really do mis-speculate
SHORT_DISTANCE = 100
N_SHORT = 3


def make_lookback(count: int) -> np.ndarray:
    """Index table: sparse long-distance reads + a few short ones.

    Entries default to the untouched upper half of ``audit`` (no
    dependence); every ``PERIOD``-th iteration past ``DISTANCE`` reads
    the audit cell written ``DISTANCE`` iterations earlier, and the first
    ``N_SHORT`` of those instead read only ``SHORT_DISTANCE`` back.
    """
    look = np.arange(count, 2 * count, dtype=np.int32)
    hot = np.arange(DISTANCE, count, PERIOD)
    look[hot] = hot - DISTANCE
    for k in range(min(N_SHORT, len(hot))):
        i = int(hot[k])
        if i >= SHORT_DISTANCE:
            look[i] = i - SHORT_DISTANCE
    return look


def make_inputs(n: int = 1, seed: int = 0, size: int = 5120) -> dict:
    count = size * max(1, n)
    rng = np.random.default_rng(seed)
    return {
        "price": rng.uniform(10.0, 100.0, count),
        "strike": rng.uniform(10.0, 100.0, count),
        "maturity": rng.uniform(0.25, 2.0, count),
        "callOut": np.zeros(count),
        "putOut": np.zeros(count),
        "audit": np.zeros(2 * count),
        "lookback": make_lookback(count),
        "rate": 0.05,
        "vol": 0.3,
        "n": count,
    }


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """Java's ``Math.exp``/``Math.log`` per element: the C library's
    function, as every kernel engine evaluates it.  NumPy's vectorized
    ``exp`` and ``log`` can differ from it in the last bit."""
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=len(x))


def _cnd(d: np.ndarray) -> np.ndarray:
    a = np.abs(d)
    w = 1.0 / (1.0 + 0.2316419 * a)
    poly = w * (
        0.31938153
        + w * (-0.356563782 + w * (1.781477937 + w * (-1.821255978 + w * 1.330274429)))
    )
    nd = 1.0 - 0.39894228040143267 * _libm(math.exp, -0.5 * a * a) * poly
    return np.where(d >= 0.0, nd, 1.0 - nd)


def reference(bindings: dict) -> dict[str, np.ndarray]:
    s = np.asarray(bindings["price"], dtype=np.float64)
    k = np.asarray(bindings["strike"], dtype=np.float64)
    t = np.asarray(bindings["maturity"], dtype=np.float64)
    look = np.asarray(bindings["lookback"], dtype=np.int64)
    rate = bindings["rate"]
    vol = bindings["vol"]
    n = bindings["n"]

    sq = vol * np.sqrt(t)
    d1 = (_libm(math.log, s / k) + (rate + 0.5 * vol * vol) * t) / sq
    d2 = d1 - sq
    nd1 = _cnd(d1)
    nd2 = _cnd(d2)
    disc = k * _libm(math.exp, -rate * t)
    call = s * nd1 - disc * nd2
    put = disc * (1.0 - nd2) - s * (1.0 - nd1)

    # Iteration i writes audit[i] from its own values only, so every
    # audit cell is known up front; its read of audit[look[i]] sees that
    # value only when iteration look[i] ran before it, and 0.0 otherwise.
    audit = np.zeros(2 * n)
    audit[:n] = call + put
    prior = np.where(look < np.arange(n), audit[look], 0.0)
    call_out = call + prior * 1.0e-9
    return {"callOut": call_out, "putOut": put, "audit": audit}


BLACKSCHOLES = Workload(
    name="BlackScholes",
    origin="Intel RMS",
    description="European option pricing with a sparse audit chain",
    scheme="sharing",
    method="run",
    source=SOURCE,
    paper_problem="n*5120 options, serial 121.3 ms",
    default_params={"size": 5120},
    work_scale=1.0,
    byte_scale=1.0,
    iter_scale=1.0,
    java_efficiency=0.00208,
    link_scale=1.0,
    make_inputs=make_inputs,
    reference=reference,
)
