"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    show the Table-II workloads and their calibration;
``run WORKLOAD``
    execute one workload under one or more strategies and print the
    simulated times and execution modes;
``table2`` / ``fig3`` / ``fig4`` / ``fig5a`` / ``fig5b`` / ``headline``
    regenerate a table/figure of the paper (paper-vs-ours columns);
``report [WORKLOAD ...]``
    run workloads traced and write a trace-insight RunReport (critical
    paths, per-lane utilization attribution, speculation waterfall) as
    schema-versioned JSON plus an optional single-file HTML dashboard;
    ``--diff BASELINE`` turns it into a regression gate;
``translate FILE``
    compile an annotated mini-Java file and print the analysis verdicts
    and generated CUDA/Java sources.
"""

from __future__ import annotations

import argparse
import sys

from .api import Japonica, STRATEGIES
from .errors import (
    AnalysisError,
    AnnotationError,
    JaponicaError,
    LexError,
    LoweringError,
    ParseError,
    RuntimeFaultError,
    TypeCheckError,
)

#: Process exit codes.  Argparse's own usage errors exit with 2.
EXIT_OK = 0
EXIT_ERROR = 1          # any other Japonica error
EXIT_USAGE = 2          # bad command-line arguments
EXIT_FRONTEND = 3       # source could not be parsed/analyzed/lowered
EXIT_RUNTIME_FAULT = 4  # an (injected) runtime fault was not recovered

_FRONTEND_ERRORS = (
    LexError,
    ParseError,
    AnnotationError,
    AnalysisError,
    TypeCheckError,
    LoweringError,
)


def _cmd_list(_args) -> int:
    from .workloads import ALL_WORKLOADS

    print(f"{'name':14s} {'origin':12s} {'scheme':9s} {'paper problem'}")
    for w in ALL_WORKLOADS:
        print(f"{w.name:14s} {w.origin:12s} {w.scheme:9s} {w.paper_problem}")
    return 0


def _run_jit_file(args) -> int:
    """``run --jit FILE``: drive a @repro.jit example module.

    The module convention: decorated functions at module top level plus
    ``make_inputs(n, seed)`` returning ``{function_name: args_tuple}``.
    Every function runs once jitted and once as the plain Python
    original on an identical fresh input set; the two must agree
    bitwise (arrays and return value) unless --no-verify.
    """
    import importlib.util
    import os

    import numpy as np

    from .frontend.pyjit import JitFunction

    path = args.workload
    if not os.path.exists(path):
        print(f"no such file: {path}", file=sys.stderr)
        return EXIT_USAGE
    name = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        print(f"cannot import {path}: {exc}", file=sys.stderr)
        return EXIT_FRONTEND
    make_inputs = getattr(module, "make_inputs", None)
    if make_inputs is None:
        print(f"{path} defines no make_inputs(n, seed)", file=sys.stderr)
        return EXIT_USAGE
    inputs = make_inputs(n=args.n, seed=args.seed)
    failed = False
    fallbacks = 0
    for fname, fargs in inputs.items():
        fn = getattr(module, fname, None)
        if not isinstance(fn, JitFunction):
            print(f"{fname}: not a @repro.jit function", file=sys.stderr)
            return EXIT_USAGE
        if args.devices != 1:
            fn._devices = args.devices
        if args.scheme:
            fn._scheme = args.scheme
        ret = fn(*fargs)
        rep = fn.last_report
        status = ""
        if args.verify:
            oracle_args = tuple(
                a.copy() if isinstance(a, np.ndarray) else a
                for a in make_inputs(n=args.n, seed=args.seed)[fname]
            )
            oracle_ret = fn.__wrapped__(*oracle_args)
            arrays_eq = all(
                np.array_equal(a.view(np.uint8), b.view(np.uint8))
                for a, b in zip(fargs, oracle_args)
                if isinstance(a, np.ndarray)
            )
            ret_eq = ret == oracle_ret or (ret is None and oracle_ret is None)
            status = "verified" if arrays_eq and ret_eq else "MISMATCH"
            failed = failed or status == "MISMATCH"
        if rep.lifted:
            detail = f"loops={rep.loops_annotated}/{rep.loops_total}"
        else:
            fallbacks += 1
            detail = f"fallback reason={rep.reason}"
        print(f"{fname}: lifted={rep.lifted} {detail} {status}".rstrip())
    if failed:
        return EXIT_ERROR
    if args.require_lift and fallbacks:
        print(f"{fallbacks} function(s) fell back to plain Python",
              file=sys.stderr)
        return EXIT_FRONTEND
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.jit:
        return _run_jit_file(args)
    from .workloads import get

    try:
        workload = get(args.workload)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if args.devices < 1:
        print(f"--devices must be >= 1, got {args.devices}", file=sys.stderr)
        return EXIT_USAGE
    if args.faults:
        # validate the schedule grammar before any work: a typo'd spec
        # must be a pointed usage error, never a mid-run traceback
        from .faults.schedule import FaultSchedule

        try:
            FaultSchedule.parse(args.faults, seed=args.fault_seed)
        except JaponicaError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return EXIT_USAGE
    strategies = args.strategies.split(",") if args.strategies else ["japonica"]
    binds = workload.bindings(n=args.n, seed=args.seed)
    reference = workload.reference(binds) if args.verify else None

    # content-keyed artifact cache: in-memory within this process (so a
    # multi-strategy run front-ends once), plus an on-disk layer with
    # --cache-dir so a repeated invocation skips compile and profiling
    cache = None
    if args.cache:
        from .cache import ArtifactCache

        cache = ArtifactCache(cache_dir=args.cache_dir)

    # --trace / --metrics / --report turn on the observability plane.
    # The traced path compiles once with a recording Instrumentation
    # (parse/analyze/translate spans) and gives every strategy a fresh
    # context — sharing one would share the profile cache and change the
    # simulated times.
    observing = bool(args.trace or args.metrics or args.report)
    obs = None
    program = None
    timelines: list[tuple[str, object]] = []
    phase_rows = []
    if observing:
        from .obs import Instrumentation

        obs = Instrumentation.recording()
        program = Japonica(
            obs=obs, cache=cache, infer_annotations=args.infer
        ).compile(workload.source)

    print(f"== {workload.name} ({workload.description}) ==")
    times = {}
    for strategy in strategies:
        if strategy not in STRATEGIES:
            print(f"unknown strategy {strategy!r}; choose from {STRATEGIES}",
                  file=sys.stderr)
            return EXIT_USAGE
        if observing:
            result = program.run(
                workload.method,
                strategy=strategy,
                scheme=args.scheme or workload.scheme,
                context=workload.make_context(
                    obs=obs, cache=cache, devices=args.devices,
                    native=args.native,
                    native_crosscheck=args.native_crosscheck,
                ),
                faults=args.faults, fault_seed=args.fault_seed,
                **binds,
            )
            from .bench import phase_breakdown

            phase_rows.extend(phase_breakdown(result, strategy))
            for lid, res in result.loop_results:
                if res.timeline is not None:
                    timelines.append((f"{strategy}:{lid}", res.timeline))
        else:
            japonica = (
                Japonica(cache=cache, infer_annotations=args.infer)
                if cache is not None or args.infer
                else None
            )
            result = workload.run(
                strategy=strategy, n=args.n, seed=args.seed,
                japonica=japonica,
                scheme=args.scheme,
                faults=args.faults, fault_seed=args.fault_seed,
                cache=cache, devices=args.devices,
                native=args.native,
                native_crosscheck=args.native_crosscheck,
            )
        times[strategy] = result.sim_time_s
        modes = ",".join(sorted({r.mode for _, r in result.loop_results}))
        status = ""
        if reference is not None:
            try:
                workload.verify(result, binds)
                status = "verified"
            except AssertionError as exc:
                status = f"MISMATCH: {exc}"
        print(f"{strategy:10s} {result.sim_time_ms:12.3f} ms  "
              f"mode={modes:10s} {status}")
        if result.resilience is not None:
            print(f"           resilience: {result.resilience.summary()}")
    if "serial" in times:
        base = times["serial"]
        for strategy, t in times.items():
            if strategy != "serial":
                print(f"speedup {strategy} over serial: {base / t:.2f}x")
    if phase_rows:
        from .bench import render_phases

        print()
        print(render_phases(phase_rows))
    if args.trace:
        from .obs import write_chrome_trace

        write_chrome_trace(
            args.trace, obs.tracer.finished_spans(), timelines,
            metadata={
                "workload": workload.name,
                "strategies": ",".join(strategies),
            },
        )
        print(f"trace written to {args.trace} "
              f"(load at https://ui.perfetto.dev)")
    if args.metrics:
        from .obs import write_metrics_json

        write_metrics_json(
            args.metrics, obs.metrics, extra={"workload": workload.name}
        )
        print(f"metrics written to {args.metrics}")
    if args.report:
        from .obs.insight import analyze_run, run_report, write_report_json

        section = analyze_run(
            timelines, metrics=obs.metrics, tracer=obs.tracer,
            sim_time_s=sum(times.values()),
        )
        write_report_json(
            args.report,
            run_report(
                {workload.name: section},
                meta={
                    "devices": args.devices,
                    "n": args.n,
                    "seed": args.seed,
                    "strategies": ",".join(strategies),
                },
            ),
        )
        print(f"insight report written to {args.report}")
    if cache is not None and args.cache_dir:
        s = cache.stats()
        print(f"cache: {s['hits']} hits, {s['misses']} misses "
              f"({args.cache_dir})")
    return 0


def _cmd_report(args) -> int:
    """Run workloads traced and emit the trace-insight RunReport."""
    import json

    from .obs import Instrumentation
    from .obs.insight import (
        analyze_run,
        diff_reports,
        render_diff,
        run_report,
        write_html,
        write_report_json,
    )
    from .workloads import ALL_WORKLOADS, get

    if args.devices < 1:
        print(f"--devices must be >= 1, got {args.devices}", file=sys.stderr)
        return EXIT_USAGE
    strategies = args.strategies.split(",") if args.strategies else ["japonica"]
    for strategy in strategies:
        if strategy not in STRATEGIES:
            print(f"unknown strategy {strategy!r}; choose from {STRATEGIES}",
                  file=sys.stderr)
            return EXIT_USAGE
    names = args.workloads or [w.name for w in ALL_WORKLOADS]
    sections = {}
    for name in names:
        try:
            workload = get(name)
        except KeyError as exc:
            print(exc, file=sys.stderr)
            return EXIT_USAGE
        obs = Instrumentation.recording()
        program = Japonica(obs=obs).compile(workload.source)
        binds = workload.bindings(n=args.n, seed=args.seed)
        timelines: list[tuple[str, object]] = []
        sim_total = 0.0
        for strategy in strategies:
            result = program.run(
                workload.method,
                strategy=strategy,
                scheme=args.scheme or workload.scheme,
                context=workload.make_context(
                    obs=obs, devices=args.devices, native=args.native
                ),
                **binds,
            )
            sim_total += result.sim_time_s
            for lid, res in result.loop_results:
                if res.timeline is not None:
                    timelines.append((f"{strategy}:{lid}", res.timeline))
        section = analyze_run(
            timelines, metrics=obs.metrics, tracer=obs.tracer,
            sim_time_s=sim_total,
        )
        sections[workload.name] = section
        t = section["totals"]
        print(f"{workload.name:14s} sim {sim_total * 1e3:10.3f} ms  "
              f"critical-path {t['critical_path_s'] * 1e3:10.3f} ms  "
              f"slack {t['slack_s'] * 1e3:10.3f} ms")

    meta = {
        "devices": args.devices,
        "n": args.n,
        "seed": args.seed,
        "strategies": ",".join(strategies),
    }
    if args.scheme:
        meta["scheme"] = args.scheme
    report = run_report(sections, meta)
    write_report_json(args.out, report)
    print(f"insight report written to {args.out}")
    if args.html:
        write_html(args.html, report)
        print(f"dashboard written to {args.html}")
    if args.diff:
        try:
            with open(args.diff) as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read baseline {args.diff}: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        diff = diff_reports(baseline, report, threshold=args.threshold)
        print(render_diff(diff))
        if diff["verdict"] != "ok":
            print(f"FAIL: {len(diff['regressions'])} regression(s) beyond "
                  f"{args.threshold:g}x vs {args.diff}", file=sys.stderr)
            return EXIT_ERROR
    return 0


def _cmd_figure(which):
    def run(_args) -> int:
        from . import bench

        render = bench.render_bars if getattr(_args, "bars", False) else (
            bench.render_figure
        )
        if which == "table2":
            print(bench.render_table2(bench.table2()))
        elif which == "fig3":
            print(render(
                "Figure 3 - DOALL apps, speedup over 16-thread CPU",
                bench.figure3(), bench.FIG3_STRATEGIES,
            ))
        elif which == "fig4":
            print(render(
                "Figure 4 - DOACROSS apps, speedup over serial CPU",
                bench.figure4(), ("cpu16", "gpu", "japonica"),
            ))
        elif which == "fig5a":
            print(render(
                "Figure 5(a) - stealing apps, speedup over 16-thread CPU",
                bench.figure5a(), ("gpu", "japonica"),
            ))
        elif which == "fig5b":
            print(bench.render_sweep(bench.figure5b([1, 2, 3])))
        elif which == "headline":
            print(bench.render_headline(bench.headline_averages()))
        return 0

    return run


def _cmd_serve(args) -> int:
    """Run the long-lived compilation service until interrupted."""
    import asyncio

    from .serve import CompilationService, ServeConfig, ServeServer

    if args.faults:
        from .faults.schedule import FaultSchedule

        try:
            FaultSchedule.parse(args.faults, seed=args.fault_seed)
        except JaponicaError as exc:
            print(f"bad --faults spec: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        config = ServeConfig(
            workers=args.workers,
            backend=args.backend,
            cache_dir=args.cache_dir,
            max_queue=args.max_queue,
            quota_rate=args.rate,
            quota_burst=args.burst,
            default_deadline_s=args.deadline,
            faults=args.faults,
            fault_seed=args.fault_seed,
            trace=args.trace,
            slo_wall_ms=args.slo_ms,
            flight_events=args.flight_events,
            dump_on_shed=args.dump_on_shed,
            dump_dir=args.dump_dir,
        )
        server = ServeServer(
            CompilationService(config), host=args.host, port=args.port
        )
    except JaponicaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    async def run() -> None:
        await server.start()
        print(f"repro serve on http://{server.host}:{server.port} "
              f"({args.workers} {args.backend} workers, "
              f"queue {args.max_queue}"
              + (", tracing on" if args.trace else "") + ")")
        print("POST /v1/jobs | GET /healthz | GET /v1/stats | "
              "GET /v1/metrics | GET /v1/trace/<job> | GET /v1/flight  "
              "(Ctrl-C stops)")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nserve: stopped")
    return 0


def _cmd_tail(args) -> int:
    """Render a flight-recorder dump (file or a serve URL) for humans."""
    import json as _json

    from .obs.distrib import FLIGHT_SCHEMA, render_flight

    source = args.source
    if source.startswith(("http://", "https://")):
        import urllib.error
        import urllib.request

        url = source.rstrip("/") + "/v1/flight"
        try:
            with urllib.request.urlopen(url, timeout=10.0) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                print(f"{source}: no flight dump recorded yet",
                      file=sys.stderr)
                return 1
            print(f"tail: HTTP {exc.code} from {url}", file=sys.stderr)
            return 1
        except (urllib.error.URLError, OSError) as exc:
            print(f"tail: cannot reach {url}: {exc}", file=sys.stderr)
            return 1
    else:
        try:
            with open(source, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            print(f"tail: {exc}", file=sys.stderr)
            return 1
    try:
        doc = _json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        print(f"tail: not JSON: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(doc, indent=1, sort_keys=True))
        return 0
    try:
        sys.stdout.write(render_flight(doc))
    except ValueError as exc:
        print(f"tail: {exc} (expected schema {FLIGHT_SCHEMA})",
              file=sys.stderr)
        return 1
    return 0


def _cmd_infer(args) -> int:
    """Infer ``acc`` directives for bare loops and print the result.

    The per-loop proposal table goes to stderr; the annotated source —
    re-parseable mini-Java with the synthesized directives in place —
    goes to stdout, so the output can be piped straight back into
    ``repro translate``.
    """
    from .analysis.infer import infer_class
    from .lang import fmt_class, parse_program, strip_annotations
    from .workloads import get

    workload = None
    try:
        workload = get(args.target)
        source = workload.source
    except KeyError:
        try:
            source = open(args.target).read()
        except OSError as exc:
            print(
                f"{args.target!r} is neither a workload name nor a "
                f"readable file: {exc}",
                file=sys.stderr,
            )
            return EXIT_USAGE

    if args.confirm:
        if workload is None:
            print("--confirm needs a workload target (inputs are required "
                  "to profile)", file=sys.stderr)
            return EXIT_USAGE
        # inference from scratch, then one japonica run: the scheduler
        # routes every uncertain proposal through the DD profiler and the
        # verdicts land back in the report
        program = Japonica(infer_annotations=True).compile(
            workload.stripped_source()
        )
        binds = workload.bindings(n=args.n, seed=args.seed)
        program.run(
            workload.method,
            strategy="japonica",
            scheme=workload.scheme,
            context=workload.make_context(),
            **binds,
        )
        report = program.inference
        cls = program.unit.class_decl
    else:
        cls = parse_program(source)
        if args.strip or workload is not None:
            strip_annotations(cls)
        report = infer_class(cls)

    try:
        text = fmt_class(cls)
    except RecursionError:
        raise LoweringError(
            f"class {cls.name}: source nested too deeply to print"
        ) from None
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    if not report.chosen:
        print("no loop qualified for an acc directive", file=sys.stderr)
    print(text)
    return 0


def _cmd_translate(args) -> int:
    try:
        source = open(args.file).read()
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 2
    program = Japonica().compile(source)
    for method in program.methods:
        mt = program.unit.methods[method]
        print(f"== method {method} ==")
        for tl in mt.loops:
            print(f"loop {tl.id}: {tl.analysis.status.value}"
                  + (f" ({tl.cpu_only_reason})" if tl.cpu_only else ""))
            print(f"  live-in : {sorted(tl.analysis.variables.live_in)}")
            print(f"  live-out: {sorted(tl.analysis.variables.live_out)}")
            print(f"  copyin  : {tl.data_plan.arrays_in()}")
            print(f"  copyout : {tl.data_plan.arrays_out()}")
        if args.cuda:
            print("\n-- generated CUDA --")
            print(program.cuda_source(method))
        if args.java:
            print("\n-- generated Java --")
            print(program.java_source(method))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Japonica reproduction (ICPP 2013) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the Table-II workloads").set_defaults(
        fn=_cmd_list
    )

    run_p = sub.add_parser("run", help="run one workload")
    run_p.add_argument("workload")
    run_p.add_argument(
        "--strategies",
        default="serial,cpu,gpu,japonica",
        help="comma-separated subset of " + ",".join(STRATEGIES),
    )
    run_p.add_argument("--n", type=int, default=1, help="problem multiplier")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--no-verify", dest="verify", action="store_false",
        help="skip checking against the sequential reference",
    )
    run_p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="fault-injection schedule, e.g. 'gpu.launch:0.01,transfer@3' "
             "(site:rate for probabilistic, site@n+m for exact probes)",
    )
    run_p.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the deterministic fault schedule",
    )
    run_p.add_argument(
        "--scheme", choices=("sharing", "stealing"), default=None,
        help="override the workload's japonica scheduling scheme",
    )
    run_p.add_argument(
        "--infer", action="store_true",
        help="infer acc directives for bare loops at compile time "
             "(hand-annotated loops are left untouched, so annotated "
             "sources run identically)",
    )
    run_p.add_argument(
        "--jit", action="store_true",
        help="WORKLOAD is a Python file using @repro.jit; run each "
             "decorated function on its make_inputs(n, seed) arguments, "
             "print the lift report, and verify bitwise against the "
             "undecorated function",
    )
    run_p.add_argument(
        "--require-lift", action="store_true",
        help="with --jit: fail (exit 3) if any decorated function falls "
             "back to plain Python instead of lifting",
    )
    run_p.add_argument(
        "--devices", type=int, default=1, metavar="N",
        help="size of the simulated GPU pool; DOALL loops shard across "
             "the devices (results stay bit-identical to --devices 1)",
    )
    run_p.add_argument(
        "--native", action=argparse.BooleanOptionalAction, default=True,
        help="native kernel backend: every kernel runs as generated "
             "type-specialized source from its first launch (results "
             "stay bit-identical; --no-native runs the IR interpreter, "
             "the oracle, everywhere)",
    )
    run_p.add_argument(
        "--native-crosscheck", action="store_true",
        help="run every native launch against the interpreter oracle "
             "and fail on any divergence (slow; for debugging the tier)",
    )
    run_p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persist compile/profile artifacts to DIR; a repeated run "
             "with unchanged inputs skips the front end and profiling",
    )
    run_p.add_argument(
        "--no-cache", dest="cache", action="store_false", default=True,
        help="disable the in-process compile/profile artifact cache",
    )
    run_p.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace-event JSON (Perfetto-loadable) of the "
             "pipeline spans and per-lane execution timelines",
    )
    run_p.add_argument(
        "--metrics", metavar="FILE", default=None,
        help="write runtime metrics (counters/gauges/histograms) as JSON",
    )
    run_p.add_argument(
        "--report", metavar="FILE", default=None,
        help="write a trace-insight RunReport (critical path, per-lane "
             "utilization attribution, speculation waterfall) as JSON",
    )
    run_p.set_defaults(fn=_cmd_run)

    rep_p = sub.add_parser(
        "report",
        help="run workloads traced and write a trace-insight RunReport",
    )
    rep_p.add_argument(
        "workloads", nargs="*", metavar="WORKLOAD",
        help="workloads to analyze (default: the whole Table-II suite)",
    )
    rep_p.add_argument(
        "--strategies", default="japonica",
        help="comma-separated subset of " + ",".join(STRATEGIES),
    )
    rep_p.add_argument("--n", type=int, default=1, help="problem multiplier")
    rep_p.add_argument("--seed", type=int, default=0)
    rep_p.add_argument(
        "--scheme", choices=("sharing", "stealing"), default=None,
        help="override every workload's japonica scheduling scheme",
    )
    rep_p.add_argument(
        "--devices", type=int, default=1, metavar="N",
        help="size of the simulated GPU pool",
    )
    rep_p.add_argument(
        "--native", action=argparse.BooleanOptionalAction, default=True,
        help="run kernels as generated source from their first launch "
             "(--no-native: the interpreter; reports stay byte-identical)",
    )
    rep_p.add_argument(
        "--out", metavar="FILE", default="RUN_REPORT.json",
        help="output JSON path (default RUN_REPORT.json)",
    )
    rep_p.add_argument(
        "--html", metavar="FILE", default=None,
        help="also write a self-contained single-file HTML dashboard",
    )
    rep_p.add_argument(
        "--diff", metavar="BASELINE", default=None,
        help="diff against a baseline RunReport and exit nonzero on a "
             "critical-path/makespan regression beyond --threshold",
    )
    rep_p.add_argument(
        "--threshold", type=float, default=2.0,
        help="relative regression threshold for --diff (default 2.0)",
    )
    rep_p.set_defaults(fn=_cmd_report)

    for which in ("table2", "fig3", "fig4", "fig5a", "fig5b", "headline"):
        fig_p = sub.add_parser(
            which, help=f"regenerate {which} (paper vs ours)"
        )
        fig_p.add_argument(
            "--bars", action="store_true",
            help="render as ASCII bars instead of a table",
        )
        fig_p.set_defaults(fn=_cmd_figure(which))

    srv = sub.add_parser(
        "serve",
        help="run the compilation service (admission control, deadlines, "
             "circuit breakers, load-shedding degradation)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8642,
                     help="listen port (0 = ephemeral; default 8642)")
    srv.add_argument("--workers", type=int, default=2,
                     help="worker pool size (default 2)")
    srv.add_argument("--backend", choices=("thread", "process"),
                     default="thread",
                     help="worker backend (default thread)")
    srv.add_argument("--max-queue", type=int, default=32,
                     help="bounded job queue capacity (default 32)")
    srv.add_argument("--rate", type=float, default=50.0,
                     help="default per-tenant admission rate, jobs/s")
    srv.add_argument("--burst", type=float, default=16.0,
                     help="default per-tenant burst allowance")
    srv.add_argument("--deadline", type=float, default=30.0,
                     help="default per-job wall-clock budget, seconds")
    srv.add_argument("--cache-dir", metavar="DIR", default=None,
                     help="shared on-disk artifact cache directory")
    srv.add_argument("--faults", default=None, metavar="SPEC",
                     help="serve-level chaos schedule, e.g. "
                          "'serve.worker:0.05' kills a worker before 5%% "
                          "of dispatches")
    srv.add_argument("--fault-seed", type=int, default=0)
    srv.add_argument("--trace", action="store_true",
                     help="request-scoped distributed tracing + worker "
                          "metric shipping (GET /v1/trace/<job_id>, "
                          "richer /v1/metrics)")
    srv.add_argument("--slo-ms", type=float, default=30000.0,
                     help="latency SLO target feeding the burn-rate "
                          "counters (default 30000)")
    srv.add_argument("--flight-events", type=int, default=64,
                     help="flight-recorder ring capacity per lane "
                          "(default 64)")
    srv.add_argument("--dump-on-shed", action="store_true",
                     help="also dump the flight recorder when a job "
                          "is shed")
    srv.add_argument("--dump-dir", metavar="DIR", default=None,
                     help="write flight dumps as JSON files here "
                          "(default: in-memory only, GET /v1/flight)")
    srv.set_defaults(fn=_cmd_serve)

    tail_p = sub.add_parser(
        "tail",
        help="render a flight-recorder dump (a repro.flight/v1 JSON "
             "file or a running server's URL) for humans",
    )
    tail_p.add_argument(
        "source",
        help="path to a flight-dump JSON file, or a server base URL "
             "(http://host:port) to fetch its latest dump from",
    )
    tail_p.add_argument("--json", action="store_true",
                        help="print the raw JSON bundle instead of the "
                             "rendered table")
    tail_p.set_defaults(fn=_cmd_tail)

    inf = sub.add_parser(
        "infer",
        help="infer acc directives for bare loops and print the "
             "annotated source (proposal table on stderr)",
    )
    inf.add_argument(
        "target",
        help="a Table-II workload name (its directives are stripped "
             "first) or a mini-Java source file",
    )
    inf.add_argument(
        "--strip", action="store_true",
        help="for file targets: drop existing annotations before "
             "inferring (workload targets are always stripped)",
    )
    inf.add_argument(
        "--confirm", action="store_true",
        help="run the inferred program once under japonica so the DD "
             "profiler confirms or rejects every uncertain proposal "
             "(workload targets only)",
    )
    inf.add_argument("--n", type=int, default=1, help="problem multiplier")
    inf.add_argument("--seed", type=int, default=0)
    inf.set_defaults(fn=_cmd_infer)

    tr = sub.add_parser("translate", help="translate an annotated Java file")
    tr.add_argument("file")
    tr.add_argument("--cuda", action="store_true", help="print CUDA text")
    tr.add_argument("--java", action="store_true", help="print Java text")
    tr.set_defaults(fn=_cmd_translate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _FRONTEND_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FRONTEND
    except RuntimeFaultError as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_FAULT
    except JaponicaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
