"""Opcode-coverage drift gate for the ``@repro.jit`` frontend.

``tests/fixtures/jit_opcodes.json`` pins, per supported interpreter
version, the exact raw opcode vocabulary the normalizer accepts, plus
the fallback-reason taxonomy.  Any change to either — a new opcode
handled, one dropped, a reason code added — must show up as a reviewed
fixture diff, not slip in silently:

    python -m tests.frontend.test_jit_coverage --write

regenerates the fixture from the live tables.
"""

from __future__ import annotations

import json
import os

from repro.frontend.pyjit import FALLBACK_REASONS, SUPPORTED_BY_VERSION

FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "jit_opcodes.json"
)

#: Schema tag of the fixture document.
SCHEMA = "repro.jit-opcodes/v1"


def current_document() -> dict:
    """The fixture content the live tables imply."""
    return {
        "schema": SCHEMA,
        "fallback_reasons": sorted(FALLBACK_REASONS),
        "versions": {
            version: list(opnames)
            for version, opnames in sorted(SUPPORTED_BY_VERSION.items())
        },
    }


def write_fixture(path: str = FIXTURE) -> None:
    with open(path, "w") as fh:
        json.dump(current_document(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_fixture() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_exists():
    assert os.path.exists(FIXTURE), (
        "tests/fixtures/jit_opcodes.json is missing; regenerate with "
        "python -m tests.frontend.test_jit_coverage --write"
    )


def test_opcode_tables_match_fixture():
    pinned = load_fixture()
    live = current_document()
    assert pinned == live, (
        "the supported-opcode tables (or the fallback taxonomy) drifted "
        "from tests/fixtures/jit_opcodes.json; if the change is "
        "intentional, regenerate with "
        "python -m tests.frontend.test_jit_coverage --write"
    )


def test_fixture_covers_all_supported_versions():
    pinned = load_fixture()
    assert set(pinned["versions"]) == set(SUPPORTED_BY_VERSION)
    for version, opnames in pinned["versions"].items():
        assert opnames == sorted(set(opnames)), (
            f"{version}: fixture opnames must be sorted and unique"
        )


if __name__ == "__main__":
    import sys

    if "--write" in sys.argv:
        write_fixture()
        print(f"wrote {os.path.normpath(FIXTURE)}")
    else:
        print(json.dumps(current_document(), indent=1, sort_keys=True))
