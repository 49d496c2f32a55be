"""Self-test of perfbench's seeded draws and span arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH)

import jobgen  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402

DRAWS = {
    "pipeline-suite": jobgen.pipeline_jobs,
    "serve-repeat": lambda seed: jobgen.serve_requests(seed, 200, False),
    "serve-unique": lambda seed: jobgen.serve_requests(seed, 200, True),
}


@pytest.mark.parametrize("workload", sorted(DRAWS))
def test_same_seed_gives_byte_identical_lists(workload):
    draw = DRAWS[workload]
    assert jobgen.canonical(draw(11)) == jobgen.canonical(draw(11))


@pytest.mark.parametrize("workload", sorted(DRAWS))
def test_other_seed_gives_other_draw(workload):
    draw = DRAWS[workload]
    assert jobgen.canonical(draw(11)) != jobgen.canonical(draw(12))


def test_draw_does_not_depend_on_the_interpreter_run():
    code = ("import sys, jobgen; sys.stdout.write(jobgen.canonical("
            "jobgen.serve_requests(5, 50, True)).hex())")
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=PERFBENCH, check=True,
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(outs) == 1


def test_unique_requests_never_repeat_an_input():
    seeds = [r["seed"] for r in jobgen.serve_requests(3, 500, True)]
    assert len(set(seeds)) == len(seeds)
    assert not {s["seed"] for s in jobgen.serve_shapes(3)} & set(seeds)


def test_same_seed_gives_identical_sim_speedup():
    sys.path.insert(0, measure.SRC)
    import wl_pipeline

    jobs = [j for j in jobgen.pipeline_jobs(4)[:wl_pipeline.PASS]
            if j["workload"] in ("VectorAdd", "Sepia")]
    assert len(jobs) == 4
    first = wl_pipeline.sim_speedup_serial(jobs)
    assert first > 1.0
    assert wl_pipeline.sim_speedup_serial(jobs) == first


def test_nested_spans_split_the_op_wall():
    recorded = [
        ("a", "x", 1.0, 4.0, ""),
        ("a", "y", 2.0, 3.0, ""),
        ("a", "y", 3.0, 3.5, ""),
        ("a", "workloads.verify", 5.5, 6.0, ""),  # after the op: not in it
        ("b", "x", 0.0, 1.0, ""),  # another op's span
    ]
    roots = {"a": (0.0, 5.0)}
    assert spans.attribute(recorded, roots) == (
        {"bench.op": 2.0, "x": 1.5, "y": 1.5}, 0.0
    )
    metrics, problems = spans.layer_metrics(recorded, roots)
    assert problems == []
    assert metrics["bench.unattributed_ratio"] == 0.4
    assert metrics["bench.outside_ratio"] == 0.0


def test_a_span_that_partly_overlaps_another_is_a_problem():
    recorded = [
        ("a", "x", 1.0, 4.0, ""),
        ("a", "y", 3.5, 6.0, ""),  # starts inside x, ends after it and the op
    ]
    roots = {"a": (0.0, 5.0)}
    self_s, outside = spans.attribute(recorded, roots)
    assert self_s == {"bench.op": 2.0, "x": 0.5, "y": 2.5}
    assert outside == 2.0
    metrics, problems = spans.layer_metrics(recorded, roots)
    assert metrics["bench.outside_ratio"] == 0.4
    assert len(problems) == 1 and "outside their parent" in problems[0]
