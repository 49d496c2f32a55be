"""pipeline-suite: closed loop, one client, in process.

An op is what ``repro run W --strategies japonica`` does after its
imports: a fresh ``Japonica`` over an empty in-memory ``ArtifactCache``,
``compile``, a fresh calibrated ``make_context``, and one run.  Input
generation before an op and the NumPy check after it are the
benchmark's own work and stay outside the op's time.
"""

from __future__ import annotations

import sys
import traceback
from time import perf_counter as now

import jobgen
import measure
import spans

#: run once during set-up, so lazy imports and first calls land there
WARM_JOB = {"workload": "VectorAdd", "devices": 1, "n": 1, "seed": 0}

#: jobs in a pass: every Table-II workload at both pool sizes
PASS = len(jobgen.TABLE2) * len(jobgen.DEVICES)

#: fresh set-ups besides the run's own that ``setup_s`` is the median
#: of.  A set-up here is mostly ``import repro.api`` and spreads by 30%
#: or more from one to the next, so it takes five.
SETUP_PROBES = 4


def compile_and_run(job: dict, binds: dict):
    """The timed op; returns its ``ProgramResult``."""
    from repro.api import Japonica
    from repro.cache import ArtifactCache
    from repro.workloads import BY_NAME

    w = BY_NAME[job["workload"]]
    japonica = Japonica(cache=ArtifactCache())
    program = japonica.compile(w.source)
    ctx = w.make_context(cache=japonica.cache, devices=job["devices"])
    return program.run(
        w.method, strategy="japonica", scheme=w.scheme, context=ctx, **binds
    )


def one_op(op: str, job: dict) -> dict:
    """Inputs, the timed op and its check; returns the op's row."""
    from repro.workloads import BY_NAME

    w = BY_NAME[job["workload"]]
    token = spans.CURRENT.set([op])
    try:
        binds = w.bindings(n=job["n"], seed=job["seed"])
        row = {"op": op, "job": job, "t0": now(), "error": None,
               "sim_ms": None}
        try:
            result = compile_and_run(job, binds)
        except Exception as exc:  # a failed op is counted, not fatal
            row["t1"] = now()
            row["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            return row
        row["t1"] = now()
        try:
            w.verify(result, binds)
            row["sim_ms"] = result.sim_time_ms
        except AssertionError as exc:
            row["error"] = f"wrong output: {exc}"
        return row
    finally:
        spans.CURRENT.reset(token)


def closed_loop(jobs: list, seconds: float, probes=None):
    """Ops back to back for ``seconds``, then to the end of the pass.

    Whole passes keep every workload at every pool size equally often in
    the sample, so the percentiles do not hop between the jobs around
    them; whole rounds would over-represent one pool size of every
    workload in a run that ends after an odd number of rounds.  A speed
    probe runs before each op and after the last.
    """
    rows: list = []
    start = now()
    while now() - start < seconds or len(rows) % PASS:
        if probes is not None:
            probes.append(measure.speed_probe())
        rows.append(one_op(f"op{len(rows)}", jobs[len(rows) % len(jobs)]))
    wall = now() - start
    if probes is not None:
        probes.append(measure.speed_probe())
    return rows, wall


def sim_speedup_serial(jobs: list, japonica_ms=None) -> float:
    """Geomean over ``jobs`` of serial / japonica simulated time.

    ``japonica_ms`` maps a job's index to a japonica time already
    measured; every other leg is computed here, outside any timed op.
    """
    from repro.workloads import BY_NAME

    japonica_ms = japonica_ms or {}
    serial: dict = {}
    ratios = []
    for k, job in enumerate(jobs):
        w = BY_NAME[job["workload"]]
        binds = w.bindings(n=job["n"], seed=job["seed"])
        key = (job["workload"], job["n"], job["seed"])
        if key not in serial:
            serial[key] = w.compile().run(
                w.method, strategy="serial", scheme=w.scheme,
                context=w.make_context(), **binds,
            ).sim_time_ms
        fast = japonica_ms.get(k)
        if fast is None:
            fast = compile_and_run(job, binds).sim_time_ms
        ratios.append(serial[key] / fast)
    return measure.geomean(ratios)


def setup_probe(args, t_start: float) -> float:
    row = one_op("warm", WARM_JOB)
    if row["error"] is not None:
        raise RuntimeError(f"warm-up op failed: {row['error']}")
    return now() - t_start


def run(args, t_start: float) -> None:
    own = setup_probe(args, t_start)
    jobs = jobgen.pipeline_jobs(args.seed)
    if args.trace:
        return _traced(args, jobs)
    probes: list = []
    rows, wall = closed_loop(jobs, args.seconds, probes)
    rss = measure.peak_rss_mb()
    measured = {
        k: r["sim_ms"] for k, r in enumerate(rows[:PASS])
        if r["sim_ms"] is not None
    }
    speedup = sim_speedup_serial(jobs[:PASS], measured)
    metrics = measure.end_to_end(
        rows, wall, measure.setup_median(args, own, SETUP_PROBES), speedup,
        rss, probes, closed_loop=True,
    )
    measure.report(args, rows, metrics, measure.END_TO_END)


def _traced(args, jobs: list) -> None:
    """Pairs of one untraced and one traced op on the same job.

    The pair's first op warms the process-wide kernel cache for the
    second, so the order alternates from pair to pair.
    """
    recorder = spans.Recorder()
    plain: list = []
    traced: list = []
    start = now()
    k = 0
    while now() - start < args.seconds:
        job = jobs[k % len(jobs)]
        for tracing in ((False, True) if k % 2 == 0 else (True, False)):
            if tracing:
                recorder.install_pipeline()
            try:
                row = one_op(f"op{k}{'t' if tracing else 'u'}", job)
            finally:
                recorder.uninstall()
            (traced if tracing else plain).append(row)
        k += 1
    roots = {r["op"]: (r["t0"], r["t1"]) for r in traced}
    metrics, problems = spans.layer_metrics(recorder.spans, roots)
    metrics["bench.trace_overhead_ratio"] = measure.overhead_ratio(
        traced, plain
    )
    metrics.update(measure.import_metrics())
    measure.report(args, plain + traced, metrics, spans.PER_LAYER, problems)
