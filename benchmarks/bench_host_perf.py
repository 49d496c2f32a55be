"""Host-performance harness: wall-clock of the host-side pipeline.

Measures the two things the host-performance plane optimizes and writes
them to ``BENCH_HOSTPERF.json`` so the perf trajectory has data:

1. **profiling-phase speedup** — wall-clock of ``profile_loop`` over a
   large straight-line kernel (VectorAdd-shaped, default 256Ki
   iterations, full-window sample) vs. the same profile built the
   per-record way: the per-lane SE launch, then the scalar analyses of
   ``tests/oracles``;
2. **cold vs. warm artifact cache** — wall-clock of compile and run for
   a runtime-profiling workload with a shared on-disk cache: the warm
   pass must hit the cache for both the translation unit and the
   dependency profile;
3. **multi-device scaling** — simulated makespan of saturated DOALL
   workloads at pool sizes 1/2/4: sharding across more devices must
   improve the makespan monotonically (and never change results — the
   identity suite covers that part);
4. **insight summaries** — a per-workload trace-insight report (critical
   path, slack, bottleneck lane) over the full suite, the same numbers
   ``python -m repro report`` emits, so the perf trajectory records
   where the simulated time goes, not just how much of it there is;
5. **kernel tiers** — median wall-clock of three hot kernel launches
   (after a compile launch) through the interpreter vs. the native
   tiers, with the tiers' outputs checked bit-identical: VectorAdd's
   straight-line kernel run lane by lane (direct, the generated-source
   tier), and two control-flow kernels on the lock-step tier, Crypt's
   first (a lane-parallel direct launch) and CFD's flux kernel
   (buffered, its SE-log columns built and compared too).
   The source tier must clear 5x over the interpreter on VectorAdd at
   the full size.

Run standalone (the CI ``perf-smoke`` job uses ``--n 32768``)::

    PYTHONPATH=src python benchmarks/bench_host_perf.py \
        --out BENCH_HOSTPERF.json

``--check BASELINE`` compares the measured warm-cache wall-clock against
a committed baseline and exits nonzero on a >``--tolerance``x
regression, normalized by the cold-run ratio so a slower CI machine does
not trip the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, _ROOT)  # tests.oracles: the scalar profiling leg

SCHEMA = "repro.hostperf/v5"

#: Saturated DOALL workloads whose makespan must improve with pool size.
MULTIDEVICE_WORKLOADS = ("VectorAdd", "BFS", "MVT")
DEVICE_COUNTS = (1, 2, 4)

VECADD_SRC = """
class Vec {
  static void run(double[] a, double[] b, double[] c, int n) {
    /* acc parallel copyin(a[0:n-1], b[0:n-1]) copyout(c[0:n-1]) */
    for (int i = 0; i < n; i++) {
      c[i] = a[i] * 2.0 + b[i];
    }
  }
}
"""

CACHE_WORKLOAD = "Guass-Seidel"  # DOACROSS: profiles at runtime


def measure_profiling(n: int) -> dict:
    """Profile a straight-line kernel both ways; wall-clock each.

    ``columnar`` is ``profile_loop`` as shipped.  ``scalar`` is the same
    profile built per record: the SE launch through the dispatcher, then
    the scalar oracles over the interpreter's own ``{index:
    LaneSpecState}`` dict of the same launch (run untimed, and checked
    column for column against the dispatcher's log).
    """
    import numpy as np

    from repro.api import Japonica
    from repro.gpusim.warp import divergence_factor
    from repro.ir.interpreter import ArrayStorage
    from repro.profiler.trace import (
        ANALYSIS_COST_PER_ACCESS,
        INSTRUMENTATION_FACTOR,
        profile_loop,
    )
    from repro.scheduler.context import ExecutionContext
    from repro.ir.columnar import ColumnarLanes
    from tests.oracles import (
        analyze_lanes_scalar,
        estimate_coalescing_scalar,
        interpreter_lanes,
        logged_accesses_scalar,
    )

    program = Japonica().compile(VECADD_SRC)
    fn = program.unit.methods["run"].loops[0].fn
    rng = np.random.default_rng(42)

    def storage():
        return ArrayStorage({
            "a": rng.standard_normal(n),
            "b": rng.standard_normal(n),
            "c": np.zeros(n),
        })

    env = {"n": n}
    indices = range(n)
    out = {}

    ctx = ExecutionContext()
    stg = storage()
    t0 = time.perf_counter()
    run = profile_loop(ctx.device, fn, indices, env, stg, max_sample=n)
    out["columnar_s"] = time.perf_counter() - t0
    out["columnar_profile_time_s"] = run.profile.profile_time_s

    ctx = ExecutionContext()
    device, warp = ctx.device, ctx.device.spec.warp_size
    stg = storage()
    _pl, _counts, lanes = interpreter_lanes(fn, indices, env, stg)
    t0 = time.perf_counter()
    per_lane, cols = ctx.kernels.run_buffered(fn, indices, env, stg)
    kernel_s = device.cost.gpu_kernel_time(
        ctx.kernels.take_counts(fn), n,
        divergence=divergence_factor(per_lane, warp),
    )
    profile = analyze_lanes_scalar(lanes, indices, warp)
    profile.coalescing = estimate_coalescing_scalar(lanes, indices, warp)
    profile.profile_time_s = (
        kernel_s * INSTRUMENTATION_FACTOR
        + logged_accesses_scalar(lanes) * ANALYSIS_COST_PER_ACCESS
    )
    out["scalar_s"] = time.perf_counter() - t0
    out["scalar_profile_time_s"] = profile.profile_time_s
    out["scalar_log_identical"] = not ColumnarLanes.from_states(
        lanes, indices, stg
    ).differing_columns(cols)
    out["speedup"] = out["scalar_s"] / out["columnar_s"]
    return out


def _timed_pass(workload, cache_dir: str) -> dict:
    """One compile+run pass against the shared on-disk artifact cache."""
    from repro.api import Japonica
    from repro.cache import ArtifactCache

    cache = ArtifactCache(cache_dir=cache_dir)
    japonica = Japonica(cache=cache)
    t0 = time.perf_counter()
    program = japonica.compile(workload.source)
    compile_s = time.perf_counter() - t0

    ctx = workload.make_context(cache=cache)
    binds = workload.bindings()
    t0 = time.perf_counter()
    result = program.run(workload.method, strategy="japonica", context=ctx,
                         **binds)
    run_s = time.perf_counter() - t0
    return {
        "compile_s": compile_s,
        "run_s": run_s,
        "total_s": compile_s + run_s,
        "sim_time_s": result.sim_time_s,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
    }


def measure_cache() -> dict:
    """Cold then warm pipeline pass sharing one on-disk cache."""
    from repro.workloads import get

    workload = get(CACHE_WORKLOAD)
    with tempfile.TemporaryDirectory() as d:
        cold = _timed_pass(workload, d)
        warm = _timed_pass(workload, d)  # fresh cache object, same dir
    return {"workload": CACHE_WORKLOAD, "cold": cold, "warm": warm}


def measure_multidevice() -> dict:
    """Simulated makespan of DOALL workloads across pool sizes."""
    from repro.workloads import get

    out = {}
    for name in MULTIDEVICE_WORKLOADS:
        w = get(name)
        times = {}
        for devices in DEVICE_COUNTS:
            result = w.run("japonica", devices=devices)
            times[str(devices)] = result.sim_time_s
        ordered = [times[str(d)] for d in DEVICE_COUNTS]
        out[name] = {
            "sim_time_s": times,
            "monotone": all(
                a > b for a, b in zip(ordered, ordered[1:])
            ),
            "speedup_at_max": ordered[0] / ordered[-1],
        }
    return out


def measure_insight() -> dict:
    """Trace-insight summary per workload: where the simulated time goes.

    Runs the full suite traced and reduces each workload's RunReport
    section to the numbers worth trending: simulated time, critical-path
    length and slack, and the bottleneck lane (highest utilization).
    All quantities are simulated, so this section is deterministic.
    """
    from repro.api import Japonica
    from repro.obs import Instrumentation
    from repro.obs.insight import analyze_run
    from repro.workloads import ALL_WORKLOADS

    out = {}
    for workload in ALL_WORKLOADS:
        obs = Instrumentation.recording()
        program = Japonica(obs=obs).compile(workload.source)
        result = program.run(
            workload.method, strategy="japonica", scheme=workload.scheme,
            context=workload.make_context(obs=obs), **workload.bindings(),
        )
        timelines = [
            (f"japonica:{lid}", res.timeline)
            for lid, res in result.loop_results
            if res.timeline is not None
        ]
        section = analyze_run(
            timelines, metrics=obs.metrics, tracer=obs.tracer,
            sim_time_s=result.sim_time_s,
        )
        totals = section["totals"]
        bottleneck = {"lane": "", "utilization": 0.0}
        for doc in section["timelines"].values():
            for lane, row in doc["lanes"].items():
                if row["utilization"] > bottleneck["utilization"]:
                    bottleneck = {
                        "lane": lane, "utilization": row["utilization"],
                    }
        out[workload.name] = {
            "sim_time_s": result.sim_time_s,
            "critical_path_s": totals["critical_path_s"],
            "slack_s": totals["slack_s"],
            "bottleneck": bottleneck,
        }
    return out


#: Timed launches per kernel-tier leg, after the compile launch; the leg
#: reports their median wall-clock.
TIMED_LAUNCHES = 3


def median_launch(launch) -> tuple[float, object]:
    """Run ``launch()`` once to pay the compile, then ``TIMED_LAUNCHES``
    times; return the median wall-clock and the last timed launch's
    output.  ``launch`` returns ``(seconds, output)``."""
    launch()  # warm: compile
    runs = [launch() for _ in range(TIMED_LAUNCHES)]
    return statistics.median(dt for dt, _ in runs), runs[-1][1]


def measure_kernel_tiers(n: int) -> dict:
    """Hot launches per tier; the median wall-clock of each, and the
    outputs of a timed launch compared.

    The dispatcher is driven directly, so each leg runs entirely in one
    tier: a warm launch first to pay the compile, then the timed ones.
    VectorAdd's launch is lane-sequential, so it runs on the src tier.
    """
    import numpy as np

    from repro.api import Japonica
    from repro.ir.interpreter import ArrayStorage
    from repro.ir.native import KernelCache, KernelDispatcher

    program = Japonica().compile(VECADD_SRC)
    fn = program.unit.methods["run"].loops[0].fn
    rng = np.random.default_rng(7)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    env = {"n": n}
    indices = list(range(n))

    def timed(native: bool) -> tuple[float, object]:
        disp = KernelDispatcher(cache=KernelCache(), native=native)

        def launch():
            stg = ArrayStorage(
                {"a": a.copy(), "b": b.copy(), "c": np.zeros(n)}
            )
            t0 = time.perf_counter()
            disp.run_direct(fn, indices, env, stg)
            dt = time.perf_counter() - t0
            disp.take_counts(fn)
            return dt, stg.arrays["c"]

        return median_launch(launch)

    interp_s, c_interp = timed(False)
    src_s, c_src = timed(True)
    return {
        "interp_s": interp_s,
        "src_s": src_s,
        "src_speedup": interp_s / src_s,
        "identical": c_interp.tobytes() == c_src.tobytes(),
        "control_flow": {
            "crypt_direct": measure_control_flow_tier(
                "Crypt", "direct", lambda b: b["n"] // 4
            ),
            "cfd_buffered": measure_control_flow_tier(
                "CFD", "buffered", lambda b: b["n"]
            ),
        },
    }


def measure_control_flow_tier(workload_name: str, flavor: str, count) -> dict:
    """Launches of a workload's first kernel per tier, at its default
    size over ``count(bindings)`` indices, lane-parallel, so the native
    leg runs on the lock-step tier; the median wall-clock of each, and
    the outputs of a timed launch compared.

    A ``buffered`` launch times the kernel with its SE log built as
    columns (``from_states`` on the interpreter), and ``identical``
    also covers every log column.
    """
    import numpy as np

    from repro.api import Japonica
    from repro.ir.interpreter import ArrayStorage
    from repro.ir.native import KernelCache, KernelDispatcher
    from repro.workloads import get

    workload = get(workload_name)
    program = Japonica().compile(workload.source)
    fn = program.unit.methods[workload.method].loops[0].fn
    binds = workload.bindings()
    arrays = {k: v for k, v in binds.items() if isinstance(v, np.ndarray)}
    env = {k: v for k, v in binds.items() if k not in arrays}
    indices = list(range(count(binds)))

    def timed(native: bool):
        disp = KernelDispatcher(cache=KernelCache(), native=native)
        run = getattr(disp, f"run_{flavor}")
        kwargs = {"parallel": True} if flavor == "direct" else {}

        def launch():
            stg = ArrayStorage({k: v.copy() for k, v in arrays.items()})
            t0 = time.perf_counter()
            out = run(fn, indices, env, stg, **kwargs)
            dt = time.perf_counter() - t0
            return dt, (out, disp.take_counts(fn), stg)

        dt, (out, counts, stg) = median_launch(launch)
        return dt, out, counts, stg

    interp_s, out_i, counts_i, st_i = timed(False)
    native_s, out_n, counts_n, st_n = timed(True)
    identical = counts_i == counts_n and all(
        arr.tobytes() == st_n.arrays[name].tobytes()
        for name, arr in st_i.arrays.items()
    )
    if flavor == "buffered":
        (pl_i, cols_i), (pl_n, cols_n) = out_i, out_n
        identical = identical and pl_i == pl_n
        identical = identical and not cols_i.differing_columns(cols_n)
    else:
        identical = identical and out_i == out_n
    return {
        "workload": workload_name,
        "flavor": flavor,
        "indices": len(indices),
        "tier": "lockstep",
        "interp_s": interp_s,
        "native_s": native_s,
        "native_speedup": interp_s / native_s,
        "identical": identical,
    }


def check_against(report: dict, baseline_path: str, tolerance: float) -> int:
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base_cold = baseline["cache"]["cold"]["total_s"]
    base_warm = baseline["cache"]["warm"]["total_s"]
    cold = report["cache"]["cold"]["total_s"]
    warm = report["cache"]["warm"]["total_s"]
    # normalize by the cold-pass ratio: a uniformly slower machine scales
    # both passes, only a warm-specific regression should trip the gate
    machine = cold / base_cold if base_cold > 0 else 1.0
    allowed = base_warm * tolerance * machine
    print(f"warm-cache check: measured {warm:.3f}s, "
          f"allowed {allowed:.3f}s "
          f"(baseline {base_warm:.3f}s x {tolerance:g} "
          f"x machine ratio {machine:.2f})")
    if warm > allowed:
        print("FAIL: warm-cache wall-clock regressed", file=sys.stderr)
        return 1
    warm_hits = report["cache"]["warm"]["cache_hits"]
    if warm_hits < 2:
        print(f"FAIL: warm pass hit the cache only {warm_hits} times "
              f"(expected unit + profile)", file=sys.stderr)
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=256 * 1024,
                        help="iterations of the straight-line profiling "
                             "kernel (default 256Ki)")
    parser.add_argument("--out", default="BENCH_HOSTPERF.json",
                        help="output JSON path")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against a baseline JSON and fail on "
                             "a warm-cache regression")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="allowed warm-cache slowdown vs baseline")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless the columnar profiling speedup "
                             "reaches this factor (default: 5 when n is "
                             "the full 256Ki size, off otherwise)")
    parser.add_argument("--min-kernel-speedup", type=float, default=None,
                        help="fail unless the generated-source kernel "
                             "tier reaches this speedup over the "
                             "interpreter (default: 5 when n is the "
                             "full 256Ki size, off otherwise)")
    args = parser.parse_args(argv)

    print(f"profiling phase: straight-line kernel, n={args.n} ...")
    profiling = measure_profiling(args.n)
    print(f"  scalar   {profiling['scalar_s']:8.3f}s")
    print(f"  columnar {profiling['columnar_s']:8.3f}s")
    print(f"  speedup  {profiling['speedup']:8.1f}x")

    print(f"artifact cache: {CACHE_WORKLOAD} cold vs warm ...")
    cache = measure_cache()
    for label in ("cold", "warm"):
        row = cache[label]
        print(f"  {label:4s} compile {row['compile_s']:6.3f}s  "
              f"run {row['run_s']:6.3f}s  "
              f"cache {row['cache_hits']} hits / "
              f"{row['cache_misses']} misses")

    print("multi-device scaling: DOALL makespan at pool sizes "
          + "/".join(str(d) for d in DEVICE_COUNTS) + " ...")
    multidevice = measure_multidevice()
    for name, row in multidevice.items():
        times = "  ".join(
            f"d={d} {row['sim_time_s'][str(d)] * 1e3:8.3f}ms"
            for d in DEVICE_COUNTS
        )
        flag = "" if row["monotone"] else "  NOT MONOTONE"
        print(f"  {name:10s} {times}  "
              f"({row['speedup_at_max']:.2f}x at {DEVICE_COUNTS[-1]} "
              f"devices){flag}")

    print(f"kernel tiers: median of {TIMED_LAUNCHES} hot launches, "
          f"n={args.n} ...")
    kernel_tiers = measure_kernel_tiers(args.n)
    print(f"  interp   {kernel_tiers['interp_s']:8.3f}s")
    print(f"  src      {kernel_tiers['src_s']:8.3f}s  "
          f"({kernel_tiers['src_speedup']:.1f}x, "
          f"identical={kernel_tiers['identical']})")
    for label, row in kernel_tiers["control_flow"].items():
        print(f"  {label:13s} interp {row['interp_s']:7.3f}s  "
              f"{row['tier']} {row['native_s']:7.3f}s  "
              f"({row['native_speedup']:.1f}x, "
              f"{row['indices']} indices, identical={row['identical']})")

    print("trace insight: critical path and bottleneck lane per workload ...")
    insight = measure_insight()
    print(f"  {'workload':14s} {'sim':>12s} {'crit-path':>12s} "
          f"{'slack':>10s}  bottleneck")
    for name, row in insight.items():
        b = row["bottleneck"]
        print(f"  {name:14s} {row['sim_time_s'] * 1e3:10.3f}ms "
              f"{row['critical_path_s'] * 1e3:10.3f}ms "
              f"{row['slack_s'] * 1e3:8.3f}ms  "
              f"{b['lane']} at {b['utilization'] * 100:.1f}%")

    report = {
        "schema": SCHEMA,
        "n": args.n,
        "profiling": profiling,
        "cache": cache,
        "multidevice": multidevice,
        "kernel_tiers": kernel_tiers,
        "insight": insight,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"report written to {args.out}")

    min_speedup = args.min_speedup
    if min_speedup is None and args.n >= 256 * 1024:
        min_speedup = 5.0
    if min_speedup is not None and profiling["speedup"] < min_speedup:
        print(f"FAIL: profiling speedup {profiling['speedup']:.1f}x "
              f"< required {min_speedup:g}x", file=sys.stderr)
        return 1
    if not kernel_tiers["identical"]:
        print("FAIL: kernel tiers disagree on results", file=sys.stderr)
        return 1
    bad = [label for label, row in kernel_tiers["control_flow"].items()
           if not row["identical"]]
    if bad:
        print(f"FAIL: kernel tiers disagree on {', '.join(bad)}",
              file=sys.stderr)
        return 1
    if not profiling["scalar_log_identical"]:
        print("FAIL: the dispatcher's SE log differs from the interpreter's",
              file=sys.stderr)
        return 1
    min_kernel = args.min_kernel_speedup
    if min_kernel is None and args.n >= 256 * 1024:
        min_kernel = 5.0
    if min_kernel is not None and kernel_tiers["src_speedup"] < min_kernel:
        print(f"FAIL: kernel src-tier speedup "
              f"{kernel_tiers['src_speedup']:.1f}x "
              f"< required {min_kernel:g}x", file=sys.stderr)
        return 1
    if cache["warm"]["cache_misses"] != 0:
        print("FAIL: warm pass missed the cache", file=sys.stderr)
        return 1
    bad = [n for n, row in multidevice.items() if not row["monotone"]]
    if bad:
        print(f"FAIL: makespan not monotone with device count for "
              f"{', '.join(bad)}", file=sys.stderr)
        return 1
    if args.check:
        return check_against(report, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
