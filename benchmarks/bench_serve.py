"""Serve-plane load generator: throughput, tail latency, shed behavior.

Boots a real ``repro serve`` HTTP server in-process, then drives it with
a deterministic zipfian tenant mix from concurrent client threads —
a few tenants send most of the traffic, the tail of tenants sends the
rest, mirroring the multi-tenant skew the admission controller and the
shedding ladder exist for.  Measured:

* requests/s and wall-clock of the whole run;
* p50/p99 client-observed latency of completed jobs;
* shed rate and reject rate (the overload answers);
* artifact-cache hit rate across tenants;
* the exactly-once ledger: lost (admitted, never settled) and
  duplicated settlements — both must be zero, always, even in chaos
  mode.

Chaos mode (``--faults serve.worker:0.05 --fault-seed 7``) kills workers
before a deterministic subset of dispatches; the CI ``serve-chaos`` job
runs that and gates on the ledger staying clean.

``--check BASELINE`` gates a run against a committed ``BENCH_SERVE.json``:
structural invariants (zero lost, zero duplicated, completions happened)
plus the tail-amplification ratio p99/p50, which is machine-speed
independent, within ``--tolerance``x of the baseline's.

The observability leg (``repro.benchserve/v2``) runs a paired mix —
tracing off, then tracing on — on otherwise identical servers and
reports the p99 ratio in the ``obs`` section.  Tracing is gated to cost
at most ``--trace-tolerance``x (default 1.10) of the untraced p99, with
a small absolute slack so sub-millisecond jitter cannot fail the gate.
``--skip-obs`` drops the leg (the section is then ``null``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import queue as queue_mod
import random
import sys
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

SCHEMA = "repro.benchserve/v2"

#: Job shapes the generator draws from (cheap Table-II runs; repeats are
#: common, so the shared artifact cache and pooled contexts get hits).
JOB_SHAPES = (
    {"kind": "run", "workload": "VectorAdd", "n": 1, "seed": 0},
    {"kind": "run", "workload": "VectorAdd", "n": 1, "seed": 1},
    {"kind": "run", "workload": "MVT", "n": 1, "seed": 0},
    {"kind": "run", "workload": "BFS", "n": 1, "seed": 0},
    {"kind": "run", "workload": "Sepia", "n": 1, "seed": 0},
)

#: Priority mix: mostly normal, some high, a shed-able low tail.
PRIORITY_WEIGHTS = ((0, 0.15), (1, 0.55), (2, 0.30))


def zipf_weights(n: int, s: float) -> list[float]:
    w = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(w)
    return [x / total for x in w]


def build_requests(args) -> list[dict]:
    """The deterministic request list (seeded rng, no wall clock)."""
    rng = random.Random(args.seed)
    tenants = [f"tenant-{i}" for i in range(args.tenants)]
    tweights = zipf_weights(args.tenants, args.zipf_s)
    pvals = [p for p, _ in PRIORITY_WEIGHTS]
    pweights = [w for _, w in PRIORITY_WEIGHTS]
    out = []
    for _ in range(args.requests):
        shape = dict(rng.choice(JOB_SHAPES))
        shape["tenant"] = rng.choices(tenants, weights=tweights)[0]
        shape["priority"] = rng.choices(pvals, weights=pweights)[0]
        shape["deadline_ms"] = args.deadline_s * 1e3
        out.append(shape)
    return out


def start_server(args, trace: bool = False):
    """Run the serve stack on its own event loop in a daemon thread."""
    from repro.serve import CompilationService, ServeConfig, ServeServer

    config = ServeConfig(
        workers=args.workers,
        backend=args.backend,
        max_queue=args.max_queue,
        quota_rate=args.rate,
        quota_burst=args.burst,
        default_deadline_s=args.deadline_s,
        faults=args.faults,
        fault_seed=args.fault_seed,
        trace=trace,
    )
    server = ServeServer(CompilationService(config), port=0)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, name="serve-loop", daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("serve did not start")
    return server, loop, thread


def stop_server(server, loop, thread) -> None:
    asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=60)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)


def percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * len(sorted_vals)))
    return sorted_vals[idx]


def drive(args, port: int, requests: list[dict]) -> list[dict]:
    """Fire the request list from ``--clients`` threads; per-request rows."""
    from repro.serve.client import ServeClient

    work: queue_mod.Queue = queue_mod.Queue()
    for i, job in enumerate(requests):
        work.put((i, job))
    rows: list[dict] = [None] * len(requests)  # type: ignore[list-item]

    def client_main():
        client = ServeClient(port=port, timeout=args.deadline_s * 4)
        while True:
            try:
                i, job = work.get_nowait()
            except queue_mod.Empty:
                return
            t0 = time.perf_counter()
            try:
                http, doc = client.submit(job)
            except OSError as exc:
                http, doc = 0, {"status": "transport_error", "error": str(exc)}
            rows[i] = {
                "latency_s": time.perf_counter() - t0,
                "http": http,
                "status": doc.get("status", "?"),
                "attempts": doc.get("attempts", 0),
                "served_from_cache": doc.get("served_from_cache", False),
            }

    threads = [
        threading.Thread(target=client_main, name=f"client-{c}")
        for c in range(args.clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return rows


def run_leg(args, requests: list[dict], trace: bool):
    """One full boot→warm→drive→stop cycle; returns (rows, wall_s, stats)."""
    from repro.serve.client import ServeClient

    server, loop, thread = start_server(args, trace=trace)
    try:
        warm = ServeClient(port=server.port, timeout=args.deadline_s * 4)
        for shape in JOB_SHAPES:
            warm.submit({**shape, "tenant": "warmup", "priority": 0})
        t0 = time.perf_counter()
        rows = drive(args, server.port, requests)
        wall_s = time.perf_counter() - t0
        stats = warm.stats()
    finally:
        stop_server(server, loop, thread)
    return rows, wall_s, stats


def measure_tracing_overhead(args) -> dict:
    """Paired leg: the same seeded mix, tracing off then on.

    Both sides run on fresh servers so neither inherits the other's warm
    caches beyond the explicit warmup, and the p99 ratio isolates what
    the tracing plane itself costs.
    """
    obs_args = argparse.Namespace(**vars(args))
    obs_args.requests = args.obs_requests
    obs_args.faults = None  # overhead measured on the clean path
    requests = build_requests(obs_args)

    legs = {}
    for label, trace in (("off", False), ("on", True)):
        rows, wall_s, _stats = run_leg(obs_args, requests, trace=trace)
        ok_lat = sorted(r["latency_s"] for r in rows if r["status"] == "ok")
        legs[label] = {
            "ok": len(ok_lat),
            "wall_s": wall_s,
            "p50_s": percentile(ok_lat, 0.50),
            "p99_s": percentile(ok_lat, 0.99),
        }
    off_p99, on_p99 = legs["off"]["p99_s"], legs["on"]["p99_s"]
    return {
        "requests": len(requests),
        "off": legs["off"],
        "on": legs["on"],
        "p99_ratio": on_p99 / off_p99 if off_p99 > 0 else 0.0,
    }


def check_tracing_overhead(obs: dict, tolerance: float,
                           slack_s: float) -> int:
    """Gate: tracing on costs at most ``tolerance``x the untraced p99.

    The absolute ``slack_s`` floor keeps sub-millisecond jitter on fast
    machines from tripping a purely relative gate.
    """
    off_p99, on_p99 = obs["off"]["p99_s"], obs["on"]["p99_s"]
    allowed = max(off_p99 * tolerance, off_p99 + slack_s)
    print(f"tracing overhead: p99 on {on_p99 * 1e3:.1f}ms vs "
          f"off {off_p99 * 1e3:.1f}ms "
          f"(ratio {obs['p99_ratio']:.2f}, allowed {allowed * 1e3:.1f}ms)")
    if on_p99 > allowed:
        print(f"FAIL: tracing p99 {on_p99 * 1e3:.1f}ms exceeds allowed "
              f"{allowed * 1e3:.1f}ms", file=sys.stderr)
        return 1
    return 0


def summarize(args, rows: list[dict], wall_s: float, stats: dict,
              obs: dict | None = None) -> dict:
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    ok_lat = sorted(r["latency_s"] for r in rows if r["status"] == "ok")
    n = len(rows)
    ledger = stats["ledger"]
    return {
        "schema": SCHEMA,
        "params": {
            "requests": n,
            "tenants": args.tenants,
            "zipf_s": args.zipf_s,
            "clients": args.clients,
            "workers": args.workers,
            "backend": args.backend,
            "max_queue": args.max_queue,
            "rate": args.rate,
            "burst": args.burst,
            "faults": args.faults,
            "fault_seed": args.fault_seed,
            "seed": args.seed,
        },
        "wall_s": wall_s,
        "requests_per_s": n / wall_s if wall_s > 0 else 0.0,
        "latency": {
            "p50_s": percentile(ok_lat, 0.50),
            "p99_s": percentile(ok_lat, 0.99),
            "mean_s": sum(ok_lat) / len(ok_lat) if ok_lat else 0.0,
        },
        "statuses": counts,
        "ok_rate": counts.get("ok", 0) / n,
        "shed_rate": counts.get("shed", 0) / n,
        "reject_rate": counts.get("rejected", 0) / n,
        "cache_hit_rate": stats["cache_hit_rate"],
        "retries": {
            "worker_deaths": stats["pool"]["worker_deaths"],
            "max_attempts": max((r["attempts"] for r in rows), default=0),
        },
        "ledger": {
            "admitted": ledger["admitted"],
            "lost": ledger["unsettled"],
            "duplicated": ledger["duplicate_settlements"],
        },
        "degradation": stats["degradation"],
        "breakers": {
            "trips": stats["breakers"]["trips"],
            "recoveries": stats["breakers"]["recoveries"],
        },
        "obs": obs,
    }


def check_against(report: dict, baseline: dict, tolerance: float) -> int:
    failures = []
    # structural invariants: absolute, no tolerance
    if report["ledger"]["lost"] != 0:
        failures.append(f"{report['ledger']['lost']} admitted job(s) lost")
    if report["ledger"]["duplicated"] != 0:
        failures.append(
            f"{report['ledger']['duplicated']} duplicated settlement(s)"
        )
    if report["statuses"].get("ok", 0) == 0:
        failures.append("no job completed at all")
    if report["statuses"].get("transport_error", 0) != 0:
        failures.append("client transport errors")
    # tail amplification (p99/p50) is machine-speed independent
    lat, base_lat = report["latency"], baseline["latency"]
    amp = lat["p99_s"] / lat["p50_s"] if lat["p50_s"] > 0 else 0.0
    base_amp = (
        base_lat["p99_s"] / base_lat["p50_s"] if base_lat["p50_s"] > 0 else 0.0
    )
    allowed = max(base_amp, 1.0) * tolerance
    print(f"tail check: p99/p50 {amp:.2f} vs allowed {allowed:.2f} "
          f"(baseline {base_amp:.2f} x {tolerance:g})")
    if amp > allowed:
        failures.append(f"tail amplification {amp:.2f} > {allowed:.2f}")
    # the shared cache must keep working across tenants
    if baseline["cache_hit_rate"] > 0 and report["cache_hit_rate"] == 0:
        failures.append("artifact cache hit rate collapsed to 0")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=120)
    parser.add_argument("--tenants", type=int, default=8)
    parser.add_argument("--zipf-s", type=float, default=1.2,
                        help="zipf skew of the tenant mix (default 1.2)")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads (default 8)")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--backend", choices=("thread", "process"),
                        default="thread")
    parser.add_argument("--max-queue", type=int, default=16)
    parser.add_argument("--rate", type=float, default=200.0)
    parser.add_argument("--burst", type=float, default=32.0)
    parser.add_argument("--deadline-s", type=float, default=30.0)
    parser.add_argument("--faults", default=None,
                        help="chaos schedule, e.g. 'serve.worker:0.05'")
    parser.add_argument("--fault-seed", type=int, default=0)
    parser.add_argument("--seed", type=int, default=42,
                        help="request-mix seed")
    parser.add_argument("--out", default="BENCH_SERVE.json")
    parser.add_argument("--check", metavar="BASELINE", default=None)
    parser.add_argument("--tolerance", type=float, default=3.0,
                        help="allowed p99/p50 amplification vs baseline")
    parser.add_argument("--obs-requests", type=int, default=60,
                        help="requests per side of the tracing-overhead "
                             "leg (default 60)")
    parser.add_argument("--trace-tolerance", type=float, default=1.10,
                        help="allowed tracing-on/off p99 ratio "
                             "(default 1.10)")
    parser.add_argument("--trace-slack-s", type=float, default=0.05,
                        help="absolute p99 slack for the tracing gate")
    parser.add_argument("--skip-obs", action="store_true",
                        help="skip the tracing-overhead leg")
    args = parser.parse_args(argv)
    # read the baseline before measuring: ``--out`` may name the same file
    baseline = None
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)

    requests = build_requests(args)
    print(f"serve bench: {len(requests)} requests, {args.tenants} tenants "
          f"(zipf s={args.zipf_s}), {args.clients} clients -> "
          f"{args.workers} {args.backend} workers, queue {args.max_queue}"
          + (f", chaos {args.faults!r}" if args.faults else ""))

    # primary leg: tracing off (warm each distinct shape once through a
    # dedicated tenant — compile + profile paid up front, untimed)
    rows, wall_s, stats = run_leg(args, requests, trace=False)

    obs = None
    if not args.skip_obs:
        print(f"tracing-overhead leg: {args.obs_requests} requests "
              f"per side (off, then on)")
        obs = measure_tracing_overhead(args)

    report = summarize(args, rows, wall_s, stats, obs=obs)
    lat = report["latency"]
    print(f"  wall {wall_s:8.2f}s   {report['requests_per_s']:7.1f} req/s")
    print(f"  latency p50 {lat['p50_s'] * 1e3:8.1f}ms   "
          f"p99 {lat['p99_s'] * 1e3:8.1f}ms")
    print(f"  statuses {report['statuses']}")
    print(f"  shed {report['shed_rate'] * 100:5.1f}%   "
          f"reject {report['reject_rate'] * 100:5.1f}%   "
          f"cache hit {report['cache_hit_rate'] * 100:5.1f}%")
    print(f"  worker deaths {report['retries']['worker_deaths']}   "
          f"breaker trips {report['breakers']['trips']}")
    print(f"  ledger: {report['ledger']['admitted']} admitted, "
          f"{report['ledger']['lost']} lost, "
          f"{report['ledger']['duplicated']} duplicated")

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report written to {args.out}")

    # the invariants hold unconditionally, baseline or not
    if report["ledger"]["lost"] or report["ledger"]["duplicated"]:
        print("FAIL: exactly-once ledger violated", file=sys.stderr)
        return 1
    if obs is not None and check_tracing_overhead(
        obs, args.trace_tolerance, args.trace_slack_s
    ):
        return 1
    if baseline is not None:
        return check_against(report, baseline, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
