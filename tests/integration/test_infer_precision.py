"""Inference precision/recall vs the hand annotations (ISSUE 7 gate).

Strips every Table-II workload, re-infers directives, and compares the
result loop by loop against the hand annotations:

* **placement** — the set of annotated loops per method must match;
* **clauses** — each explicit hand data clause must be reproduced
  exactly or strictly widened (``exact``/``wider``), never ``narrower``
  / ``dropped`` / ``differs``; section ranges are compared numerically
  under the workload's default bindings;
* **private** — the inferred list covers the hand list (temps are
  implicitly private, so a superset is fine).

The full comparison document is pinned to the committed baseline at
``tests/fixtures/infer_precision.json``, and
``test_matches_committed_baseline`` fails on any drift.  Regenerate
after an intentional change with::

    PYTHONPATH=src python -m tests.integration.test_infer_precision --write
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.analysis.infer import infer_class
from repro.lang import ast_nodes as A
from repro.lang.parser import parse_program
from repro.lang.pretty import format_annotation
from repro.workloads import ALL_WORKLOADS

FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "infer_precision.json"
)

SOUND = ("exact", "wider", "added")


def _ranges(sections, name, env, lengths):
    """Union of covered indices for one array in one direction."""
    out = set()
    for s in sections:
        if s.name != name:
            continue
        if s.whole:
            out.update(range(lengths[name]))
        else:
            low, high = s.bounds(env)
            out.update(range(max(low, 0), high + 1))
    return out


def _classify(hand_set, inf_set):
    if inf_set == hand_set:
        return "exact"
    if inf_set >= hand_set:
        return "wider"
    if inf_set <= hand_set:
        return "narrower"
    return "differs"


def _compare_loop(hand_ann, inf_ann, env, lengths):
    doc = {}
    for direction in ("copyin", "copyout", "create"):
        h_secs = getattr(hand_ann, direction)
        i_secs = getattr(inf_ann, direction)
        h_names = {s.name for s in h_secs}
        i_names = {s.name for s in i_secs}
        row = {}
        for name in sorted(h_names | i_names):
            if name not in i_names:
                row[name] = "dropped"
            elif name not in h_names:
                row[name] = "added"
            else:
                row[name] = _classify(
                    _ranges(h_secs, name, env, lengths),
                    _ranges(i_secs, name, env, lengths),
                )
        if row:
            doc[direction] = row
    h_priv, i_priv = set(hand_ann.private), set(inf_ann.private)
    if i_priv == h_priv:
        doc["private"] = "exact"
    elif i_priv >= h_priv:
        doc["private"] = "superset"
    elif i_priv <= h_priv:
        doc["private"] = "subset"
    else:
        doc["private"] = "differs"
    return doc


def build_fixture() -> dict:
    """The full inferred-vs-hand comparison document."""
    fixture = {"schema": "repro.infer-precision/v1", "workloads": {}}
    total_hand = total_matched = total_chosen = 0

    for w in ALL_WORKLOADS:
        hand_cls = parse_program(w.source)
        inf_cls = parse_program(w.stripped_source())
        report = infer_class(inf_cls)

        binds = w.bindings()
        env = {
            k: int(v)
            for k, v in binds.items()
            if isinstance(v, (int, np.integer))
        }
        lengths = {
            k: int(np.asarray(v).shape[0])
            for k, v in binds.items()
            if isinstance(v, np.ndarray)
        }

        wdoc = {"methods": {}, "loops": []}
        for hm, im in zip(hand_cls.methods, inf_cls.methods):
            hand_loops = A.find_loops(hm.body)
            hand_idx = [
                k for k, l in enumerate(hand_loops) if l.annotation
            ]
            mi = report.methods.get(hm.name)
            chosen = {p.index: p for p in (mi.chosen if mi else [])}
            inf_idx = sorted(chosen)
            wdoc["methods"][hm.name] = {
                "hand": hand_idx,
                "inferred": inf_idx,
                "placement_match": hand_idx == inf_idx,
            }
            total_hand += len(hand_idx)
            total_chosen += len(inf_idx)
            for k in hand_idx:
                if k not in chosen:
                    continue
                total_matched += 1
                p = chosen[k]
                wdoc["loops"].append({
                    "method": hm.name,
                    "index": k,
                    "tag": p.tag,
                    "hand": format_annotation(hand_loops[k].annotation),
                    "inferred": p.directive,
                    "comparison": _compare_loop(
                        hand_loops[k].annotation, p.annotation, env, lengths
                    ),
                })
        fixture["workloads"][w.name] = wdoc

    fixture["totals"] = {
        "hand_annotated": total_hand,
        "inferred_chosen": total_chosen,
        "matched": total_matched,
        "recall": total_matched / total_hand,
        "precision": total_matched / total_chosen,
    }
    return fixture


@pytest.fixture(scope="module")
def fixture_doc():
    return build_fixture()


def test_placement_recall_and_precision_are_total(fixture_doc):
    totals = fixture_doc["totals"]
    assert totals["recall"] == 1.0, totals
    assert totals["precision"] == 1.0, totals
    for name, wdoc in fixture_doc["workloads"].items():
        for method, md in wdoc["methods"].items():
            assert md["placement_match"], (name, method, md)


def test_no_hand_clause_unsoundly_narrowed(fixture_doc):
    for name, wdoc in fixture_doc["workloads"].items():
        for loop in wdoc["loops"]:
            comp = loop["comparison"]
            for direction in ("copyin", "copyout", "create"):
                for arr, verdict in comp.get(direction, {}).items():
                    assert verdict in SOUND, (
                        name, loop["method"], loop["index"], direction,
                        arr, verdict,
                    )
            assert comp["private"] in ("exact", "superset"), (
                name, loop["method"], loop["index"], comp["private"],
            )


def test_matches_committed_baseline(fixture_doc):
    with open(FIXTURE) as fh:
        committed = json.load(fh)
    assert fixture_doc == committed, (
        "inference drifted from tests/fixtures/infer_precision.json; "
        "inspect the diff and regenerate with "
        "'python -m tests.integration.test_infer_precision --write' "
        "if the change is intentional"
    )


if __name__ == "__main__":
    import sys

    doc = build_fixture()
    if "--write" in sys.argv:
        with open(FIXTURE, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.normpath(FIXTURE)}")
    print(json.dumps(doc["totals"], indent=1))
