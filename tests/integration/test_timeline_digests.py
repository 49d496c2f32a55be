"""Golden timeline digests: every strategy's simulated schedule, pinned.

One SHA-256 per (workload, strategy, devices) at n = 1 over the run's
simulated time, every loop's ``(id, mode)`` and every timeline event's
``(lane, start, end, label)``, floats as ``float.hex()`` so a change in
the last bit shows.  ``BENCH_REPORT.json`` pins only japonica at one
device; this fixture pins all five strategies at pool sizes 1 and 4, so
a scheduler refactor that claims to keep behaviour can prove it cell by
cell.  The committed baseline is ``tests/fixtures/timelines_v1.json``;
regenerate it after an intentional schedule change with::

    PYTHONPATH=src python -m tests.integration.test_timeline_digests --write
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.api import STRATEGIES
from repro.workloads import ALL_WORKLOADS

FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "timelines_v1.json"
)

DEVICE_COUNTS = (1, 4)


def timeline_digest(result) -> str:
    """SHA-256 of a run's simulated time, modes and timeline events."""
    h = hashlib.sha256()
    h.update(result.sim_time_s.hex().encode())
    for loop_id, res in result.loop_results:
        h.update(repr((loop_id, res.mode)).encode())
    for _, res in result.loop_results:
        if res.timeline is None:
            continue
        for e in res.timeline.events:
            h.update(
                repr((e.lane, e.start.hex(), e.end.hex(), e.label)).encode()
            )
    return h.hexdigest()


def cell_key(workload: str, strategy: str, devices: int) -> str:
    return f"{workload}/{strategy}/d{devices}"


def workload_digests(workload, devices: int) -> dict[str, str]:
    return {
        cell_key(workload.name, s, devices): timeline_digest(
            workload.run(s, n=1, devices=devices)
        )
        for s in STRATEGIES
    }


def build_fixture() -> dict:
    cells: dict[str, str] = {}
    for w in ALL_WORKLOADS:
        for devices in DEVICE_COUNTS:
            cells.update(workload_digests(w, devices))
    return {"schema": "repro.timelines/v1", "n": 1, "cells": cells}


@pytest.fixture(scope="module")
def committed() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)["cells"]


def test_fixture_covers_every_cell(committed):
    expected = {
        cell_key(w.name, s, d)
        for w in ALL_WORKLOADS for s in STRATEGIES for d in DEVICE_COUNTS
    }
    assert set(committed) == expected


@pytest.mark.parametrize("devices", DEVICE_COUNTS)
@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_timelines_match_committed_digests(workload, devices, committed):
    got = workload_digests(workload, devices)
    drifted = sorted(k for k, v in got.items() if committed.get(k) != v)
    assert not drifted, (
        f"simulated schedule drifted from {os.path.basename(FIXTURE)} in "
        f"{drifted}; regenerate with 'python -m "
        "tests.integration.test_timeline_digests --write' if intentional"
    )


if __name__ == "__main__":
    import sys

    doc = build_fixture()
    if "--write" in sys.argv:
        with open(FIXTURE, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.normpath(FIXTURE)}")
    print(f"{len(doc['cells'])} cells")
