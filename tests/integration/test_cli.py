"""CLI tests."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "GEMM" in out and "Crypt" in out

    def test_run_with_verification(self, capsys):
        code = main(["run", "MVT", "--strategies", "serial,japonica"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "speedup japonica over serial" in out

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "NotAThing"]) == 2

    def test_run_unknown_strategy(self, capsys):
        assert main(["run", "MVT", "--strategies", "warp9"]) == 2

    def test_translate(self, tmp_path, capsys):
        src = tmp_path / "demo.java"
        src.write_text(
            """
            class Demo {
              static void f(double[] a, double[] b, int n) {
                /* acc parallel */
                for (int i = 0; i < n; i++) { b[i] = a[i] + 1.0; }
              }
            }
            """
        )
        assert main(["translate", str(src), "--cuda"]) == 0
        out = capsys.readouterr().out
        assert "doall" in out
        assert "__global__" in out

    def test_translate_missing_file(self, capsys):
        assert main(["translate", "/nonexistent.java"]) == 2

    def test_translate_hex_literal_without_digits_is_frontend_error(
        self, tmp_path, capsys
    ):
        src = tmp_path / "demo.java"
        src.write_text(
            "class Demo {\n"
            "  static void f(int[] a, int n) {\n"
            "    for (int i = 0; i < n; i++) { a[i] = a[i] & 0x; }\n"
            "  }\n"
            "}\n"
        )
        assert main(["translate", str(src)]) == 3  # EXIT_FRONTEND
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'0x'" in err and "at 3:49" in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class _ReferenceSpy:
    """A workload reference that counts its calls and, with ``sabotage``
    set, returns a wrong ``x1[0]``."""

    def __init__(self, real):
        self.real, self.calls, self.sabotage = real, 0, False

    def __call__(self, bindings):
        self.calls += 1
        out = self.real(bindings)
        if self.sabotage:
            out["x1"][0] += 1.0
        return out


class TestRunVerdict:
    """``repro run`` checks every strategy against one reference and
    fails when any strategy's arrays differ from it."""

    STRATEGIES = "japonica,serial,cpu,gpu,coop50"

    @pytest.fixture
    def mvt_reference(self, monkeypatch):
        from repro.workloads import BY_NAME

        workload = BY_NAME["MVT"]
        spy = _ReferenceSpy(workload.reference)
        monkeypatch.setattr(workload, "reference", spy)
        return spy

    def test_one_reference_for_five_strategies(self, mvt_reference, capsys):
        assert main(["run", "MVT", "--strategies", self.STRATEGIES]) == 0
        assert mvt_reference.calls == 1
        assert capsys.readouterr().out.count("verified") == 5

    def test_wrong_answer_exits_1(self, mvt_reference, capsys):
        mvt_reference.sabotage = True
        assert main(["run", "MVT", "--strategies", self.STRATEGIES]) == 1
        out = capsys.readouterr().out
        assert out.count("MISMATCH: array 'x1' differs") == 5
        assert "first difference at (0,)" in out
        assert "verified" not in out
        # every line is still printed
        assert "speedup japonica over serial" in out
        assert mvt_reference.calls == 1

    def test_no_verify_never_fails(self, mvt_reference):
        mvt_reference.sabotage = True
        assert main(["run", "MVT", "--no-verify"]) == 0
        assert mvt_reference.calls == 0


class TestInferCommand:
    def test_workload_prints_reparseable_source(self, capsys):
        assert main(["infer", "GEMM"]) == 0
        captured = capsys.readouterr()
        assert "acc parallel" in captured.out
        assert "loop#" in captured.err  # proposal table on stderr
        # stdout is valid mini-Java carrying the synthesized directives
        from repro.lang import ast_nodes as A
        from repro.lang.parser import parse_program

        cls = parse_program(captured.out)
        assert any(
            l.annotation is not None
            for m in cls.methods
            for l in A.find_loops(m.body)
        )

    def test_file_target_respects_hand_annotations(self, tmp_path, capsys):
        src = tmp_path / "demo.java"
        src.write_text(
            """
            class Demo {
              static void f(double[] a, double[] b, int n) {
                /* acc parallel threads(64) */
                for (int i = 0; i < n; i++) { b[i] = a[i] + 1.0; }
              }
            }
            """
        )
        assert main(["infer", str(src)]) == 0
        captured = capsys.readouterr()
        assert "threads(64)" in captured.out  # hand directive untouched
        assert "hand-annotated" in captured.err

    def test_file_target_strip_reinfers(self, tmp_path, capsys):
        src = tmp_path / "demo.java"
        src.write_text(
            """
            class Demo {
              static void f(double[] a, double[] b, int n) {
                /* acc parallel threads(64) */
                for (int i = 0; i < n; i++) { b[i] = a[i] + 1.0; }
              }
            }
            """
        )
        assert main(["infer", str(src), "--strip"]) == 0
        captured = capsys.readouterr()
        assert "threads(64)" not in captured.out
        assert "copyin(a[0:n - 1])" in captured.out

    def test_confirm_reports_profiler_verdict(self, capsys):
        assert main(["infer", "CFD", "--confirm"]) == 0
        captured = capsys.readouterr()
        assert "confirmed-privatizable" in captured.err

    def test_confirm_rejects_file_target(self, tmp_path, capsys):
        src = tmp_path / "demo.java"
        src.write_text("class D { static void f(int n) { } }")
        assert main(["infer", str(src), "--confirm"]) == 2

    def test_unknown_target(self, capsys):
        assert main(["infer", "NotAThing"]) == 2

    def test_run_with_infer_flag_verifies(self, capsys):
        code = main(["run", "VectorAdd", "--infer"])
        assert code == 0
        assert "verified" in capsys.readouterr().out


class TestReportCommand:
    def test_writes_json_and_html(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        html = tmp_path / "r.html"
        rc = main([
            "report", "VectorAdd", "--out", str(out), "--html", str(html),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "VectorAdd" in stdout
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.insight/v1"
        assert "VectorAdd" in report["workloads"]
        section = report["workloads"]["VectorAdd"]
        (doc,) = section["timelines"].values()
        assert doc["critical_path"]["length_s"] > 0
        assert set(doc["lanes"]) >= {"cpu", "dma", "gpu"}
        page = html.read_text()
        assert page.startswith("<!DOCTYPE html>")
        assert "VectorAdd" in page

    def test_report_is_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert main(["report", "VectorAdd", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_workload_or_strategy_is_usage_error(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["report", "NotAThing", "--out", str(out)]) == 2
        assert main([
            "report", "VectorAdd", "--strategies", "warp9",
            "--out", str(out),
        ]) == 2

    def test_diff_gate_pass_and_fail(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert main(["report", "VectorAdd", "--out", str(base)]) == 0

        # identical baseline -> exit 0
        out = tmp_path / "new.json"
        rc = main([
            "report", "VectorAdd", "--out", str(out),
            "--diff", str(base),
        ])
        assert rc == 0
        assert "insight diff (threshold 2x): ok" in capsys.readouterr().out

        # tampered baseline simulating a 3x slowdown -> exit 1
        doc = json.loads(base.read_text())
        for section in doc["workloads"].values():
            section["sim_time_s"] /= 3.0
            for tl in section["timelines"].values():
                tl["makespan_s"] /= 3.0
                tl["critical_path"]["length_s"] /= 3.0
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        rc = main([
            "report", "VectorAdd", "--out", str(out),
            "--diff", str(tampered), "--threshold", "2.0",
        ])
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_missing_baseline_is_usage_error(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main([
            "report", "VectorAdd", "--out", str(out),
            "--diff", str(tmp_path / "absent.json"),
        ])
        assert rc == 2

    def test_run_report_flag(self, tmp_path):
        out = tmp_path / "run_report.json"
        rc = main([
            "run", "VectorAdd", "--strategies", "japonica",
            "--no-verify", "--report", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.insight/v1"
        assert "VectorAdd" in report["workloads"]
        # run --report records per-run metrics alongside the timelines
        section = report["workloads"]["VectorAdd"]
        assert "metrics" in section


def test_cli_fig_bars_flag_parses():
    """--bars must be accepted by every figure command (smoke: parser only)."""
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["fig3", "--bars"])
    assert args.bars is True
