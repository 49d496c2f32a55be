"""Deeply nested source is a front-end error, not a crash.

A sum of hundreds of terms or a few hundred nested parentheses overflows
the recursive parser, analysis, lowering or text generation.  The front
end reports that as a ``ParseError`` or ``LoweringError`` naming the
source position or the loop, so ``repro translate`` exits 3 with an
``error:`` line and a serve worker fails the job with a typed error.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.api import STRATEGIES, Japonica
from repro.cli import EXIT_FRONTEND, main
from repro.errors import LoweringError
from repro.serve.jobs import JobSpec
from repro.serve.worker import WorkerRuntime


def source(body: str) -> str:
    return f"""class Deep {{
  static void run(double[] a, double[] x, int n) {{
    /* acc parallel copyin(a[0:n-1]) copyout(x[0:n-1]) */
    for (int i = 0; i < n; i++) {{
      {body}
    }}
  }}
}}
"""


def sum_of(terms: int) -> str:
    return source("x[i] = " + " + ".join(["a[i]"] * terms) + ";")


PARENS = source("x[i] = " + "(" * 200 + "a[i]" + ")" * 200 + ";")

DEEP = [
    pytest.param(PARENS, "source nested too deeply at 5:", id="200-parens"),
    pytest.param(sum_of(500), "loop run#0: source nested too deeply",
                 id="500-terms"),
    pytest.param(sum_of(1000), "loop run#0: source nested too deeply",
                 id="1000-terms"),
]


@pytest.mark.parametrize("src,message", DEEP)
def test_translate_exits_frontend(tmp_path, capsys, src, message):
    path = tmp_path / "Deep.java"
    path.write_text(src)
    assert main(["translate", str(path)]) == EXIT_FRONTEND
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("terms,message", [
    (500, "class Deep: source nested too deeply to print"),
    (1000, "loop run#0: source nested too deeply to translate"),
])
def test_infer_of_the_bare_twin_exits_frontend(tmp_path, capsys, terms,
                                               message):
    # 500 terms pass inference and overflow printing the class; 1000
    # overflow the analysis.  Either is an error line, as translate's
    bare = "\n".join(line for line in sum_of(terms).splitlines()
                     if "acc parallel" not in line)
    path = tmp_path / "Deep.java"
    path.write_text(bare)
    assert main(["infer", str(path)]) == EXIT_FRONTEND
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n" and out == ""


@pytest.mark.parametrize("src,message", DEEP)
def test_serve_worker_fails_the_job_with_a_typed_error(src, message):
    result = WorkerRuntime().execute(
        JobSpec(tenant="t", kind="compile", source=src)
    )
    assert result.status == "failed"
    assert result.error.split(":")[0] in ("ParseError", "LoweringError")
    assert message in result.error


def test_a_450_term_sum_compiles_and_runs(tmp_path, capsys):
    src = sum_of(450)
    path = tmp_path / "Deep.java"
    path.write_text(src)
    assert main(["translate", str(path)]) == 0
    assert "loop run#0: doall" in capsys.readouterr().out
    program = Japonica().compile(src)
    for strategy in STRATEGIES:
        result = program.run(
            "run", strategy=strategy, a=np.ones(64), x=np.zeros(64), n=64
        )
        assert (result.arrays["x"] == 450.0).all(), strategy


def test_text_generated_on_first_read_names_the_loop():
    # the Java text takes two frames a term: with 300 frames to spare,
    # the first read of a 300-term sum's text overflows
    program = Japonica().compile(sum_of(300))
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 300)
    try:
        with pytest.raises(LoweringError, match="loop run#0: source nested"):
            program.java_source("run")
    finally:
        sys.setrecursionlimit(limit)
    assert "x[i] = a[i] + a[i]" in program.java_source("run")
