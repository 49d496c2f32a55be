"""serve-repeat and serve-unique: an open loop against an in-process server.

The server is a real ``ServeServer`` over the ``process`` backend with
one worker, on this process's event loop.  The generator shares that
loop and keeps at most ``CONNECTIONS`` requests in flight.  Requests
are due at evenly spaced times, and each is timed from when it was due,
so a stall also charges the requests queued behind it.  The latencies
are scaled to the reference speed by probes the worker itself runs
while idle (``probed_session``), as the requests' work runs there.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import shutil
import statistics
import tempfile
from time import perf_counter as now

import jobgen
import measure
import spans

#: Offered rate, requests/s, for both serve workloads.  On the seed
#: commit (2-core x86-64 sandbox) the worker spends about 200 ms on a
#: serve-unique request, so this rate keeps it about half busy; after
#: the warm-up it spends about 75 ms on a serve-repeat request (a fifth
#: busy).  At 3 requests/s serve-unique's queues grew so much faster
#: than linearly on a slow host that its p95 spread past its bound.
RATE = 2.5

#: requests in flight at most: the generator's connections
CONNECTIONS = 2

#: the generator fell behind, and the run is invalid, when the p95 of
#: (actual send - due time) exceeds this share of the send interval
LATE_SHARE = 0.5

#: rounds of every shape that set-up sends before timing starts.  On the
#: seed commit a repeated request runs slower for its shape's first
#: repeats on one pooled context: BICG about nine times slower for ten
#: of them, MVT for three.  With fewer rounds that step falls inside
#: the timed window and sets serve-repeat's p95.  serve-unique never
#: reuses a context, so more rounds would not warm it further.
WARM_ROUNDS = {"serve-repeat": 12, "serve-unique": 1}

#: fresh set-ups besides the run's own that ``setup_s`` is the median
#: of.  serve-repeat's twelve rounds make a set-up take about 9 s, so
#: one probe there keeps every run inside the benchmark's time budget.
SETUP_PROBES = {"serve-repeat": 1, "serve-unique": 2}


def _config():
    from repro.serve import ServeConfig

    # quotas far above the offered rate: admission still runs on every
    # request, but never refuses one
    return ServeConfig(workers=1, backend="process", quota_rate=1000.0,
                       quota_burst=1000.0, default_deadline_s=60.0)


def warm_jobs(seed: int, rounds: int) -> list[dict]:
    """``rounds`` requests per serve-repeat shape, sent before timing
    starts, round by round."""
    return [
        {"job_id": f"warm-{r}-{k}", "tenant": "warmup", "kind": "run",
         "strategy": "japonica", "verify": True, **shape}
        for r in range(rounds)
        for k, shape in enumerate(jobgen.serve_shapes(seed))
    ]


async def post(port: int, doc: dict):
    """POST one job; returns (HTTP status, result document, reply time)."""
    body = json.dumps(doc).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            b"POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        await writer.drain()
        raw = await reader.read()  # the server closes after one reply
        done = now()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split(None, 2)[1]), json.loads(payload), done


async def boot(seed: int, rounds: int):
    from repro.serve import CompilationService, ServeServer

    server = ServeServer(CompilationService(_config()), port=0)
    await server.start()
    try:
        for doc in warm_jobs(seed, rounds):
            status, out, _ = await post(server.port, doc)
            if status != 200:
                raise RuntimeError(f"warm-up {doc['job_id']}: HTTP "
                                   f"{status}: {out.get('error')}")
    except BaseException:
        await server.stop()
        raise
    return server


async def drive(port: int, requests: list) -> list:
    """Send ``requests`` on schedule; returns their rows."""
    slots = asyncio.Semaphore(CONNECTIONS)
    rows: list = []

    async def one(doc, due):
        sent = now()
        try:
            status, out, done = await post(port, doc)
        except (OSError, ValueError, IndexError) as exc:
            status, out, done = 0, {"error": repr(exc)}, now()
        finally:
            slots.release()
        rows.append({"op": doc["job_id"], "job": doc, "t0": due,
                     "sent": sent, "t1": done, "http": status, "doc": out,
                     "error": None})

    start = now()
    tasks = []
    for i, doc in enumerate(requests):
        due = start + i / RATE
        if due > now():
            await asyncio.sleep(due - now())
        await slots.acquire()
        tasks.append(asyncio.create_task(one(doc, due)))
    await asyncio.gather(*tasks)
    rows.sort(key=lambda r: r["t0"])
    return rows


async def session(seed: int, rounds: int, requests: list):
    """Boot and warm up ``rounds`` rounds, drive ``requests``, stop.

    Returns the time set-up ended, the rows, and the worker's artifact
    cache (hits, misses) over the timed requests.
    """
    server = await boot(seed, rounds)
    ready = now()
    try:
        metrics = server.service.metrics
        hits = metrics.counter("serve.cache.hits").value
        misses = metrics.counter("serve.cache.misses").value
        _TIMING.value = 1
        try:
            rows = await drive(server.port, requests)
        finally:
            _TIMING.value = 0
        cache = (metrics.counter("serve.cache.hits").value - hits,
                 metrics.counter("serve.cache.misses").value - misses)
    finally:
        await server.stop()
    return ready, rows, cache


#: set while a session's timed window runs; a forked worker shares it
_TIMING = multiprocessing.RawValue("b", 0)


class _ProbingConn:
    """The worker's end of its pipe, taking speed probes.

    While ``_TIMING`` is set, the worker times a speed probe each time it
    is about to wait for a job and none is queued, so a request waits
    for a probe only if it arrives during one.
    """

    def __init__(self, conn, probes: list):
        self._conn = conn
        self._probes = probes

    def recv(self):
        if _TIMING.value and not self._conn.poll():
            self._probes.append(measure.speed_probe())
        return self._conn.recv()

    def __getattr__(self, name):
        return getattr(self._conn, name)


def probed_session(seed: int, rounds: int, requests: list):
    """``session`` with speed probes in the worker, where the requests'
    work runs; also returns the probes."""
    import repro.serve.pool as pool

    main = pool._process_worker_main

    def worker_main(conn, *args, **kwargs):
        probes: list = []
        try:
            return main(_ProbingConn(conn, probes), *args, **kwargs)
        finally:
            with open(os.path.join(dump_dir, f"{os.getpid()}.json"),
                      "w") as fh:
                json.dump(probes, fh)

    os.makedirs(measure.SCRATCH, exist_ok=True)
    dump_dir = tempfile.mkdtemp(prefix="probes-", dir=measure.SCRATCH)
    pool._process_worker_main = worker_main
    try:
        ready, rows, _ = asyncio.run(session(seed, rounds, requests))
        probes = []
        for name in os.listdir(dump_dir):
            with open(os.path.join(dump_dir, name)) as fh:
                probes.extend(tuple(p) for p in json.load(fh))
    finally:
        pool._process_worker_main = main
        shutil.rmtree(dump_dir, ignore_errors=True)
    if not probes:
        raise RuntimeError("the serve worker left no speed probes")
    return ready, rows, sorted(probes)


def _key(job: dict) -> tuple:
    return job["workload"], job["n"], job["seed"], job["devices"]


def in_process(seed: int, unique: bool, rows: list) -> dict:
    """Simulated times of the checked jobs, computed here, untimed.

    serve-repeat checks every request against its shape's second run on
    one context (the warm-up made the earlier ones, and every repeat
    gives the second run's simulated time); serve-unique checks its
    first request of each workload against a run on a fresh context.
    """
    from repro.workloads import BY_NAME

    jobs = ([r["job"] for r in rows[:len(jobgen.CHEAP)]] if unique
            else jobgen.serve_shapes(seed))
    out = {}
    for job in jobs:
        w = BY_NAME[job["workload"]]
        binds = w.bindings(n=job["n"], seed=job["seed"])
        program = w.compile()

        def sim(strategy, ctx):
            return program.run(w.method, strategy=strategy, scheme=w.scheme,
                               context=ctx, **binds).sim_time_ms

        ctx = w.make_context(devices=job["devices"])
        first = sim("japonica", ctx)
        out[_key(job)] = {
            "japonica": first if unique else sim("japonica", ctx),
            "serial": sim("serial", w.make_context(devices=job["devices"])),
        }
    return out


def check(rows: list, expected: dict) -> None:
    """Mark refused, failed or wrong requests."""
    for r in rows:
        doc = r["doc"]
        if r["http"] != 200 or doc.get("status") != "ok":
            r["error"] = (f"HTTP {r['http']}, status {doc.get('status')}: "
                          f"{doc.get('error')}")
            continue
        want = expected.get(_key(r["job"]))
        if want is not None and doc["sim_time_ms"] != want["japonica"]:
            r["error"] = (f"sim_time_ms {doc['sim_time_ms']!r}, in process "
                          f"{want['japonica']!r}")


def lateness_p95_ms(rows: list) -> float:
    return measure.percentile([(r["sent"] - r["t0"]) * 1e3 for r in rows],
                              95)


def lateness_problems(rows: list) -> list[str]:
    late, limit = lateness_p95_ms(rows), LATE_SHARE * 1e3 / RATE
    if late > limit:
        return [f"the generator fell behind: p95 lateness {late:.1f} ms "
                f"> {limit:.1f} ms"]
    return []


def setup_probe(args, t_start: float) -> float:
    async def probe():
        server = await boot(args.seed, WARM_ROUNDS[args.workload])
        ready = now()
        await server.stop()
        return ready - t_start

    return asyncio.run(probe())


def run(args, t_start: float) -> None:
    unique = args.workload == "serve-unique"
    seconds = args.seconds / 2 if args.trace else args.seconds
    requests = jobgen.serve_requests(
        args.seed, max(1, round(RATE * seconds)), unique
    )
    rounds = WARM_ROUNDS[args.workload]
    if args.trace:
        _, rows, _ = asyncio.run(session(args.seed, rounds, requests))
        return _traced(args, unique, requests, rows)
    ready, rows, probes = probed_session(args.seed, rounds, requests)
    rss = measure.peak_rss_mb()  # the server stopped and reaped its worker
    expected = in_process(args.seed, unique, rows)
    check(rows, expected)
    speedup = measure.geomean(
        [e["serial"] / e["japonica"] for e in expected.values()]
    )
    wall = max(r["t1"] for r in rows) - rows[0]["t0"]
    setup = measure.setup_median(args, ready - t_start,
                                 SETUP_PROBES[args.workload])
    metrics = measure.end_to_end(rows, wall, setup, speedup, rss, probes,
                                 closed_loop=False)
    measure.report(args, rows, metrics, measure.END_TO_END,
                   lateness_problems(rows))


def queue_waits(recorded: list, roots: dict) -> list[tuple]:
    """serve.queue_wait spans: from a request's last gate to dispatch."""
    gates_end: dict = {}
    dispatched: dict = {}
    for op, layer, t0, t1, _tag in recorded:
        if op in roots:
            if layer == "serve.gates":
                gates_end[op] = max(t1, gates_end.get(op, t1))
            elif layer == "serve.dispatch":
                dispatched[op] = t0
    return [(op, "serve.queue_wait", gates_end[op], t0, "")
            for op, t0 in dispatched.items() if op in gates_end]


def _traced(args, unique, requests, plain) -> None:
    """The untraced half is done; run the same requests traced."""
    os.makedirs(measure.SCRATCH, exist_ok=True)
    dump_dir = tempfile.mkdtemp(prefix="serve-", dir=measure.SCRATCH)
    recorder = spans.Recorder()
    try:
        recorder.install_serve(dump_dir)
        try:
            _, rows, (hits, misses) = asyncio.run(
                session(args.seed, WARM_ROUNDS[args.workload], requests)
            )
        finally:
            recorder.uninstall()
        for name in sorted(os.listdir(dump_dir)):
            recorder.load(os.path.join(dump_dir, name))
    finally:
        shutil.rmtree(dump_dir, ignore_errors=True)
    expected = in_process(args.seed, unique, plain)
    check(plain, expected)
    check(rows, expected)

    roots = {r["op"]: (r["t0"], r["t1"]) for r in rows}
    recorder.spans.extend(queue_waits(recorder.spans, roots))
    metrics, problems = spans.layer_metrics(recorder.spans, roots)
    pool_run = {
        op: t1 - t0 for op, layer, t0, t1, tag in recorder.spans
        if op in roots and layer == "serve.pool" and tag == "run"
    }
    worker = {r["op"]: r["doc"].get("wall_ms", 0.0) / 1e3 for r in rows}
    if pool_run:
        metrics["serve.pipe_s"] = statistics.fmean(
            pool_run[op] - worker[op] for op in pool_run
        )
    metrics["serve.worker_s"] = statistics.fmean(worker.values())
    if hits + misses:
        metrics["serve.cache_hit_ratio"] = hits / (hits + misses)
    metrics["bench.gen_lateness_p95_ms"] = lateness_p95_ms(rows)
    metrics["bench.trace_overhead_ratio"] = measure.overhead_ratio(rows, plain)
    metrics.update(measure.import_metrics())
    problems += lateness_problems(plain) + lateness_problems(rows)
    measure.report(args, plain + rows, metrics, spans.PER_LAYER, problems)
