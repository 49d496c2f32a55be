"""Seeded job lists for the perfbench workloads.

Every list here is a pure function of the workload seed: the same seed
gives byte-identical lists (see ``canonical``), a different seed gives a
different draw, and the program under test only ever sees the generated
inputs.  This module imports nothing from the program.
"""

from __future__ import annotations

import json
import random

#: The 11 Table-II workloads, in Table II order.
TABLE2 = (
    "GEMM", "VectorAdd", "BFS", "MVT", "Guass-Seidel", "CFD", "Sepia",
    "BlackScholes", "BICG", "2MM", "Crypt",
)

#: Simulated GPU pool sizes drawn by pipeline-suite.
DEVICES = (1, 4)

#: Cheap workloads (one warm run well under 0.5 s) that the serve
#: workloads draw from.
CHEAP = ("VectorAdd", "Sepia", "BlackScholes", "MVT", "BICG")

#: Input seeds are drawn from [0, SEED_SPACE).
SEED_SPACE = 1 << 20

#: serve-unique seeds start here, above every seed any other list uses,
#: so a unique request can never repeat a warm-up or another request.
UNIQUE_SEED_BASE = 1 << 24

#: Zipfian tenant population of the serve workloads.
TENANTS = 8
ZIPF_S = 1.1


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so the stream ignores PYTHONHASHSEED
    return random.Random(f"perfbench/{workload}/{seed}")


def canonical(jobs: list) -> bytes:
    """The byte form the determinism self-test compares."""
    return json.dumps(jobs, sort_keys=True).encode()


def _blocks(rng: random.Random, items: tuple, count: int) -> list:
    """``count`` items as back-to-back shuffled blocks of all of them.

    Every prefix then holds each item an equal number of times, give or
    take one, so the cost mix of a run does not depend on the seed.
    """
    out: list = []
    while len(out) < count:
        out.extend(rng.sample(items, len(items)))
    return out[:count]


def pipeline_jobs(seed: int, passes: int = 8) -> list[dict]:
    """pipeline-suite: ``passes`` passes over TABLE2 x DEVICES.

    A pass runs every Table-II workload at both pool sizes on one input
    seed, as two rounds; each round runs every workload once, in a
    seeded order.  The first pass is the sample ``sim_speedup_serial``
    covers.
    """
    rng = _rng("pipeline-suite", seed)
    jobs = []
    for _ in range(passes):
        seeds = {w: rng.randrange(SEED_SPACE) for w in TABLE2}
        devices = {w: rng.sample(DEVICES, len(DEVICES)) for w in TABLE2}
        for rnd in range(len(DEVICES)):
            for w in rng.sample(TABLE2, len(TABLE2)):
                jobs.append({"workload": w, "devices": devices[w][rnd],
                             "n": 1, "seed": seeds[w]})
    return jobs


def serve_shapes(seed: int) -> list[dict]:
    """serve-repeat's job shapes: each cheap workload at one input seed."""
    rng = _rng("serve-shapes", seed)
    return [
        {"workload": w, "n": 1, "seed": rng.randrange(SEED_SPACE),
         "devices": 1}
        for w in CHEAP
    ]


def serve_requests(seed: int, count: int, unique: bool) -> list[dict]:
    """The serve workloads' request documents, in send order.

    serve-repeat draws every request from ``serve_shapes(seed)``, so
    nearly every request repeats an earlier one.  serve-unique gives
    every request a never-seen input ``seed``, so the result key, the
    pooled-context key and the profile key all miss.  Either way the
    first ``len(CHEAP)`` requests hold each cheap workload once.
    """
    name = "serve-unique" if unique else "serve-repeat"
    rng = _rng(name, seed)
    weights = [1.0 / rank ** ZIPF_S for rank in range(1, TENANTS + 1)]
    tenants = rng.choices(
        [f"tenant-{i}" for i in range(TENANTS)], weights=weights, k=count
    )
    order = _blocks(rng, tuple(range(len(CHEAP))), count)
    base = UNIQUE_SEED_BASE + rng.randrange(SEED_SPACE) * 4096
    shapes = serve_shapes(seed)
    out = []
    for i in range(count):
        shape = dict(shapes[order[i]])
        if unique:
            shape["seed"] = base + i
        out.append({
            "job_id": f"{name}-{seed}-{i}",
            "tenant": tenants[i],
            "kind": "run",
            "strategy": "japonica",
            "verify": True,
            "deadline_ms": 60000.0,
            **shape,
        })
    return out
