"""Golden front-end digests: tokens, ASTs and generated text, pinned.

For each of the 11 Table-II workloads, over its annotated source and its
``stripped_source()``, one SHA-256 of ``repr(tokenize(src))`` and one of
``repr(parse_program(src))`` (positions included, down to the bound
expressions inside acc directives).  For each annotated source, two more
per translated method: one over the generated CUDA and Java text of its
loops, and one over its loops' kernel IR (``ir_fingerprint`` of each
loop's function, ``cpu-only`` for a loop left sequential).  A front-end
refactor that claims to keep behaviour proves it
source by source.  The committed baseline is
``tests/fixtures/frontend_v1.json``; regenerate it after an intentional
front-end change with::

    PYTHONPATH=src python -m tests.lang.test_frontend_golden --write
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.ir.instructions import ir_fingerprint
from repro.lang import parse_program, tokenize
from repro.translate.translator import Translator
from repro.workloads import ALL_WORKLOADS

FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "frontend_v1.json"
)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def source_digests(source: str) -> dict[str, str]:
    return {
        "tokens": sha(repr(tokenize(source))),
        "ast": sha(repr(parse_program(source))),
    }


def codegen_digests(source: str) -> dict[str, str]:
    """Per method: SHA-256 of its loops' CUDA text then Java text."""
    unit = Translator().translate_source(source)
    return {
        name: sha("".join(tl.cuda_source + tl.java_source for tl in mt.loops))
        for name, mt in unit.methods.items()
    }


def ir_digests(source: str) -> dict[str, str]:
    """Per method: SHA-256 of its loops' canonical IR serializations."""
    unit = Translator().translate_source(source)
    return {
        name: sha("\n".join(
            "cpu-only" if tl.fn is None else ir_fingerprint(tl.fn)
            for tl in mt.loops
        ))
        for name, mt in unit.methods.items()
    }


def build_fixture() -> dict:
    doc = {"schema": "repro.frontend/v1", "workloads": {}}
    for w in ALL_WORKLOADS:
        doc["workloads"][w.name] = {
            "annotated": source_digests(w.source),
            "stripped": source_digests(w.stripped_source()),
            "codegen": codegen_digests(w.source),
            "ir": ir_digests(w.source),
        }
    return doc


def test_matches_committed_baseline():
    with open(FIXTURE) as fh:
        committed = json.load(fh)
    assert build_fixture() == committed, (
        "front end drifted from tests/fixtures/frontend_v1.json; "
        "inspect the diff and regenerate with "
        "'python -m tests.lang.test_frontend_golden --write' "
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
    print(json.dumps(doc, indent=1, sort_keys=True)[:400])
