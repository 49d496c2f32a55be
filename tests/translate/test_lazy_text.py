"""CUDA and Java text is generated on first read, and only then.

An untraced compile generates no text.  A traced compile reads it to put
the line counts on its ``translate:*`` spans, and the golden codegen
digests (``tests/fixtures/frontend_v1.json``) pin the text itself, so the
counts are the ones every earlier compile recorded.  A unit persisted
before its text was read still yields it in another process.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.translate.translator as translator
from repro.api import Japonica
from repro.cache import ArtifactCache
from repro.obs.metrics import Instrumentation
from repro.workloads import ALL_WORKLOADS, BY_NAME

ROOT = Path(__file__).resolve().parents[2]


def text_digest(program) -> str:
    text = "".join(
        program.cuda_source(m) + program.java_source(m)
        for m in program.methods
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def codegen_calls(monkeypatch):
    calls: list[str] = []
    for name in ("generate_cuda_kernel", "generate_java_threads"):
        real = getattr(translator, name)

        def spy(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(translator, name, spy)
    return calls


def test_untraced_compile_generates_no_text(codegen_calls):
    program = Japonica().compile(BY_NAME["Crypt"].source)
    assert codegen_calls == []
    loops = program.unit.all_loops
    first = program.cuda_source("run"), program.java_source("run")
    assert codegen_calls.count("generate_cuda_kernel") == len(loops)
    assert codegen_calls.count("generate_java_threads") == len(loops)
    assert (program.cuda_source("run"), program.java_source("run")) == first
    assert len(codegen_calls) == 2 * len(loops)  # kept, not regenerated


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_traced_spans_count_the_generated_lines(workload):
    obs = Instrumentation.recording()
    Japonica(obs=obs).compile(workload.source)
    spans = [
        s for s in obs.tracer.finished_spans()
        if s.name.startswith("translate:")
    ]
    loops = Japonica().compile(workload.source).unit.all_loops
    assert [s.name for s in spans] == [f"translate:{tl.id}" for tl in loops]
    for span, tl in zip(spans, loops):
        assert list(span.attrs) == [
            "loop", "cpu_only", "cuda_lines", "java_lines"
        ]
        assert span.attrs["cpu_only"] is tl.cpu_only
        assert span.attrs["cuda_lines"] == tl.cuda_source.count("\n")
        assert span.attrs["java_lines"] == tl.java_source.count("\n")


def test_disk_unit_yields_the_same_text_in_a_fresh_process(tmp_path):
    source = BY_NAME["Crypt"].source
    Japonica(cache=ArtifactCache(cache_dir=str(tmp_path))).compile(source)
    expected = text_digest(Japonica().compile(source))
    script = (
        "import sys\n"
        "from repro.api import Japonica\n"
        "from repro.cache import ArtifactCache\n"
        "from repro.workloads import BY_NAME\n"
        "from tests.translate.test_lazy_text import text_digest\n"
        "cache = ArtifactCache(cache_dir=sys.argv[1])\n"
        "program = Japonica(cache=cache).compile(BY_NAME['Crypt'].source)\n"
        "assert cache.stats()['hits'] == 1, cache.stats()\n"
        "print(text_digest(program))\n"
    )
    env = {**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT}"}
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == expected
