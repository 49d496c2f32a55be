"""What the workloads share: paths, child processes, statistics, output."""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout, for the span files of children
SCRATCH = os.path.join(ROOT, ".perfbench")

#: no child process the benchmark starts may run longer than this
CHILD_TIMEOUT_S = 120

#: end-to-end metrics (tracing off), in BENCHMARK.json order: name -> unit
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_ops_s": "1/s",
    "sim_speedup_serial": "x",
    "peak_rss_mb": "MB",
}

#: the import.* per-layer metrics: metric -> module, from -X importtime
IMPORTS = {
    "import.repro_api_s": "repro.api",
    "import.networkx_s": "networkx",
    "import.numpy_s": "numpy",
}


#: iterations of the speed probe, a fixed pure-Python loop
PROBE_ITERATIONS = 100_000
#: the probe's duration at the reference speed.  The sandbox's vCPUs
#: change speed by up to 1.6x, in steps seconds to minutes apart, with
#: other tenants' load, so every workload reports its timings at this
#: reference speed: an op's latency scaled by this over the mean of the
#: probes just before and just after the op, set-up by this over the
#: median probe of the run.
PROBE_REFERENCE_S = 0.009


def speed_probe() -> tuple[float, float]:
    """Time the fixed probe loop now: ``(start, seconds)``."""
    t0 = time.perf_counter()
    x = 0
    for k in range(PROBE_ITERATIONS):
        x += k * k
    return t0, time.perf_counter() - t0


def speed_factor(probes) -> float:
    """Multiply a timing of this run by this to get reference seconds."""
    return PROBE_REFERENCE_S / statistics.median(s for _, s in probes)


def op_speed_factors(rows, probes) -> list[float]:
    """Per op, what to multiply its latency by to get reference seconds.

    ``probes`` are ``speed_probe`` results in time order.  An op takes
    the mean of the last probe started before it and the first started
    after it.
    """
    starts = [t for t, _ in probes]
    factors = []
    for r in rows:
        before = max(0, bisect.bisect_right(starts, r["t0"]) - 1)
        after = min(len(probes) - 1, bisect.bisect_left(starts, r["t1"]))
        factors.append(2 * PROBE_REFERENCE_S
                       / (probes[before][1] + probes[after][1]))
    return factors


def child_env() -> dict:
    """This process's environment, with the program's source importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH")))
    )
    return env


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child.

    A run reads it as soon as its timed window ends, before its own
    untimed checks and before it starts any child of its own (the
    set-up probes), so the one child counted is the program's serve
    worker.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def setup_median(args, own_s: float, probes: int) -> float:
    """Median set-up time of this process and ``probes`` fresh ones.

    A probe is ``run.py --setup-probe``: it sets up exactly as a run
    does, prints the seconds from its start to where the first timed op
    would begin, and stops.
    """
    samples = [own_s]
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``-X importtime``."""
    out: dict[str, float] = {}
    for line in stderr.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            out.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
    return out


def import_metrics(runs: int = 3) -> dict[str, float]:
    """Median import.* metrics of ``runs`` fresh ``import repro.api``
    children under ``-X importtime``."""
    stderrs = [
        subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.api"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        ).stderr
        for _ in range(runs)
    ]
    samples = defaultdict(list)
    for stderr in stderrs:
        times = parse_importtime(stderr)
        for metric, module in IMPORTS.items():
            samples[metric].append(times.get(module, 0.0))
    return {metric: statistics.median(v) for metric, v in samples.items()}


def latencies_ms(rows) -> list[float]:
    return [(r["t1"] - r["t0"]) * 1e3 for r in rows]


def overhead_ratio(traced, plain) -> float:
    """Traced over untraced median op latency."""
    return (statistics.median(latencies_ms(traced))
            / statistics.median(latencies_ms(plain)))


def end_to_end(rows, wall_s: float, setup_s: float, speedup: float,
               rss_mb: float, probes, closed_loop: bool) -> dict:
    """The end-to-end metrics of a run's timed ops.

    The timings are scaled to the reference speed by ``probes``, speed
    probes taken through the timed window.  So is a closed loop's
    throughput, which follows the speed; an open loop's is set by its
    offered rate, and is not.
    """
    factor = speed_factor(probes)
    latency = [ms * f for ms, f in zip(latencies_ms(rows),
                                       op_speed_factors(rows, probes))]
    ok = sum(1 for r in rows if r["error"] is None)
    print(f"speed: {len(probes)} probes, reference/measured median "
          f"{factor:.4f}")
    return {
        "setup_s": setup_s * factor,
        "latency_p50_ms": statistics.median(latency),
        "latency_p95_ms": percentile(latency, 95),
        "throughput_ops_s": ok / (wall_s * (factor if closed_loop else 1)),
        "sim_speedup_serial": speedup,
        "peak_rss_mb": rss_mb,
    }


def report(args, rows, metrics: dict, units: dict, problems=()) -> None:
    """Print a summary, then, as the last line, the JSON result."""
    failed = [r for r in rows if r["error"] is not None]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rows)} ops, {len(failed)} failed "
          f"(failed_ops_ratio {len(failed) / len(rows):.4f})")
    for r in failed[:5]:
        print(f"  failed {r['op']}: {r['error']}")
    for problem in problems:
        print(f"  invalid run: {problem}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
