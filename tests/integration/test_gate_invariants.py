"""A tampered baseline must fail the check that guards it.

Each committed baseline that a check compares against gets one case.  A
copy under ``tmp_path`` is tampered the way a real regression would
show, and the check must reject it; the untouched copy must pass the
same check, so the rejection is the tamper's doing.  A check that
accepts a tampered baseline guards nothing.

* report: a 3x slowdown in ``BENCH_REPORT.json``; ``repro report
  --diff`` must exit nonzero;
* infer: one flipped placement in ``infer_precision.json``;
* jit: one dropped opcode per interpreter version in
  ``jit_opcodes.json``;
* timelines: one changed digest in ``timelines_v1.json``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.workloads import get

from ..frontend import test_jit_coverage as jit
from . import test_infer_precision as infer
from . import test_timeline_digests as timelines

ROOT = Path(__file__).resolve().parents[2]


def slow_down_report(doc: dict) -> None:
    """The committed run, as if the current one were 3x slower."""
    for section in doc["workloads"].values():
        section["sim_time_s"] /= 3.0
        for tl in section["timelines"].values():
            tl["makespan_s"] /= 3.0
            tl["critical_path"]["length_s"] /= 3.0


def report_passes(path: Path, tmp_path: Path) -> bool:
    return main([
        "report", "--devices", "1", "--out", str(tmp_path / "run.json"),
        "--diff", str(path), "--threshold", "2.0",
    ]) == 0


def flip_placement(doc: dict) -> None:
    methods = doc["workloads"]["GEMM"]["methods"]
    methods[next(iter(methods))]["inferred"] = [99]


def infer_passes(path: Path, tmp_path: Path) -> bool:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(infer, "FIXTURE", str(path))
        return _holds(infer.test_matches_committed_baseline,
                      infer.build_fixture())


def drop_opcode(doc: dict) -> None:
    for version, opnames in doc["versions"].items():
        doc["versions"][version] = opnames[:-1]


def jit_passes(path: Path, tmp_path: Path) -> bool:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jit, "FIXTURE", str(path))
        return _holds(jit.test_opcode_tables_match_fixture)


#: the cell the timelines case tampers, one the stealing scheme drives
TIMELINE_CELL = ("BICG", "japonica", 1)


def change_digest(doc: dict) -> None:
    key = timelines.cell_key(*TIMELINE_CELL)
    doc["cells"][key] = doc["cells"][key][::-1]


def timelines_pass(path: Path, tmp_path: Path) -> bool:
    cells = json.loads(path.read_text())["cells"]
    name, _, devices = TIMELINE_CELL
    return _holds(
        timelines.test_timelines_match_committed_digests,
        get(name), devices, cells,
    )


def _holds(check, *args) -> bool:
    try:
        check(*args)
    except AssertionError:
        return False
    return True


#: gate -> (committed baseline, tamper, does the check pass on a copy?)
GATES = {
    "report": (ROOT / "BENCH_REPORT.json", slow_down_report, report_passes),
    "infer": (infer.FIXTURE, flip_placement, infer_passes),
    "jit": (jit.FIXTURE, drop_opcode, jit_passes),
    "timelines": (timelines.FIXTURE, change_digest, timelines_pass),
}


@pytest.mark.parametrize("gate", sorted(GATES))
def test_tampered_baseline_is_rejected(gate, tmp_path):
    baseline, tamper, passes = GATES[gate]
    intact = tmp_path / "intact.json"
    shutil.copyfile(baseline, intact)
    doc = json.loads(intact.read_text())
    tamper(doc)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert passes(intact, tmp_path), f"{gate}: the committed baseline fails"
    assert not passes(tampered, tmp_path), (
        f"{gate}: the check accepted a tampered baseline"
    )
