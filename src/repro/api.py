"""Public API of the Japonica reproduction.

Typical use::

    from repro import Japonica
    import numpy as np

    src = '''
    class VecAdd {
      static void run(double[] a, double[] b, double[] c, int n) {
        /* acc parallel copyin(a[0:n-1], b[0:n-1]) copyout(c[0:n-1]) */
        for (int i = 0; i < n; i++) { c[i] = a[i] + b[i]; }
      }
    }
    '''
    program = Japonica().compile(src)
    result = program.run("run", a=a, b=b, c=np.zeros_like(a), n=len(a))
    print(result.sim_time_ms, result.arrays["c"])

Execution strategies:

``japonica``
    the full system — profiling, mode dispatch, task sharing/stealing;
``serial``
    best serial version (1 CPU thread);
``cpu``
    CPU-alone multithreaded (16 threads);
``gpu``
    GPU-alone (synchronous JNI transfers, cyclic communication);
``coop50``
    simple cooperative version (50 % CPU / 50 % GPU).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cache.artifacts import ArtifactCache, unit_key
from .errors import JaponicaError
from .faults.resilience import ResilienceReport
from .faults.schedule import FaultSchedule
from .ir.interpreter import ArrayStorage
from .ir.lower import length_param
from .lang import ast_nodes as A
from .obs.metrics import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    record_resilience,
)
from .obs.tracer import PHASE_EXECUTE
from .runtime.hosteval import run_method_host
from .runtime.platform import Platform
from .runtime.result import ExecutionResult
from .scheduler.baselines import (
    CooperativeExecutor,
    CpuParallelExecutor,
    GpuOnlyExecutor,
    SerialExecutor,
)
from .scheduler.context import ExecutionContext, JaponicaConfig
from .scheduler.select import effective_scheme
from .scheduler.sharing import TaskSharingScheduler
from .scheduler.stealing import TaskStealingScheduler
from .scheduler.task import Task
from .translate.translator import TranslationUnit, Translator

STRATEGIES = ("japonica", "serial", "cpu", "gpu", "coop50")

_DTYPES = {
    "int": np.int32,
    "long": np.int64,
    "float": np.float32,
    "double": np.float64,
    "boolean": np.bool_,
}


@dataclass
class ProgramResult:
    """Outcome of running one method end to end."""

    arrays: dict[str, np.ndarray]
    scalars: dict[str, object]
    sim_time_s: float
    host_time_s: float
    loop_results: list[tuple[str, ExecutionResult]] = field(default_factory=list)
    strategy: str = ""
    scheme: str = ""
    #: what the resilience layer did (None unless fault injection was on)
    resilience: Optional[ResilienceReport] = None

    @property
    def sim_time_ms(self) -> float:
        return self.sim_time_s * 1e3

    def loop_result(self, loop_id: str) -> ExecutionResult:
        for lid, res in self.loop_results:
            if lid == loop_id:
                return res
        raise KeyError(f"no result for loop {loop_id!r}")

    def speedup_over(self, other: "ProgramResult") -> float:
        return other.sim_time_s / self.sim_time_s if self.sim_time_s > 0 else (
            float("inf")
        )


class CompiledProgram:
    """A translated class, ready to run under any strategy."""

    def __init__(
        self,
        unit: TranslationUnit,
        platform: Optional[Platform] = None,
        config: Optional[JaponicaConfig] = None,
        obs: Optional[Instrumentation] = None,
        cache: Optional[ArtifactCache] = None,
        inference=None,
    ):
        self.unit = unit
        self.platform = platform
        self.config = config
        self.obs = obs or NULL_INSTRUMENTATION
        self.cache = cache
        #: annotation-inference report when the program was compiled with
        #: ``infer_annotations=True`` (see :mod:`repro.analysis.infer`);
        #: ``None`` for ordinary hand-annotated compiles
        self.inference = inference

    # -- introspection ----------------------------------------------------

    @property
    def methods(self) -> list[str]:
        return list(self.unit.methods)

    def cuda_source(self, method: str) -> str:
        return "\n\n".join(
            tl.cuda_source for tl in self.unit.methods[method].loops
        )

    def java_source(self, method: str) -> str:
        return "\n\n".join(
            tl.java_source for tl in self.unit.methods[method].loops
        )

    # -- execution -------------------------------------------------------

    def run(
        self,
        method: Optional[str] = None,
        strategy: str = "japonica",
        scheme: Optional[str] = None,
        context: Optional[ExecutionContext] = None,
        faults: Optional[object] = None,
        fault_seed: int = 0,
        devices: Optional[int] = None,
        **bindings,
    ) -> ProgramResult:
        """Execute a method under a strategy.

        ``bindings`` supplies every parameter by name; array arguments
        are copied (the caller's data is never mutated) and coerced to
        the declared element type.

        ``faults`` turns on deterministic fault injection: either a
        :class:`FaultSchedule` or a spec string like
        ``"gpu.launch:0.01,transfer@3"`` (see ``FaultSchedule.parse``),
        seeded by ``fault_seed``.  The run then either produces results
        bit-identical to a fault-free run or raises a typed
        :class:`UnrecoverableFaultError`; what the resilience layer did
        is attached as ``result.resilience``.

        ``devices`` sizes the simulated GPU pool for this run (DOALL /
        profiled-clean loops shard across it); results stay bit-identical
        to the single-device run.  It cannot be combined with an explicit
        ``context`` (size the context's config instead).
        """
        if strategy not in STRATEGIES:
            raise JaponicaError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if method is None:
            if len(self.unit.methods) != 1:
                raise JaponicaError(
                    f"program has {len(self.unit.methods)} methods with "
                    f"annotated loops; pass method= explicitly"
                )
            method = next(iter(self.unit.methods))
        if method not in self.unit.methods:
            raise JaponicaError(f"no annotated method {method!r}")

        mt = self.unit.methods[method]
        decl = mt.method
        storage, scalars = self._bind(decl, bindings)
        if context is not None and devices is not None:
            raise JaponicaError(
                "pass devices= through the context's JaponicaConfig when "
                "supplying an explicit context"
            )
        config = self.config
        if devices is not None:
            if devices < 1:
                raise JaponicaError(f"devices must be >= 1, got {devices}")
            from dataclasses import replace as _replace

            config = _replace(config or JaponicaConfig(), devices=devices)
        ctx = context or ExecutionContext(
            self.platform, config, obs=self.obs, cache=self.cache
        )
        ctx.reset_device()
        if faults is not None:
            if isinstance(faults, FaultSchedule):
                schedule = faults  # carries its own seed
            else:
                schedule = FaultSchedule.parse(str(faults), seed=fault_seed)
            ctx.faults.install(schedule)

        use_scheme = effective_scheme(mt.loops, scheme)
        by_node = {id(tl.analysis.info.loop): tl for tl in mt.loops}
        loop_results: list[tuple[str, ExecutionResult]] = []

        sharing = TaskSharingScheduler(ctx)
        stealing = TaskStealingScheduler(ctx)
        baselines = {
            "serial": SerialExecutor(ctx),
            "cpu": CpuParallelExecutor(ctx),
            "gpu": GpuOnlyExecutor(ctx),
            "coop50": CooperativeExecutor(ctx),
        }

        def loop_env() -> dict[str, object]:
            env = dict(scalars)
            for name, shape in storage.shapes.items():
                for axis, size in enumerate(shape):
                    env[length_param(name, axis)] = int(size)
            return env

        def write_back_scalars(env: dict[str, object]) -> None:
            for key in scalars:
                if key in env and env[key] != scalars[key]:
                    scalars[key] = env[key]

        def record(label: str, result: ExecutionResult) -> None:
            loop_results.append((label, result))
            mode = result.mode or strategy
            ctx.obs.metrics.counter(f"scheduler.mode.{mode}").inc()

        def dispatch(loop_node: A.For, following: list[A.Stmt]) -> int:
            tl = by_node.get(id(loop_node))
            if tl is None:
                raise JaponicaError("annotated loop missing from translation")
            ctx.check_deadline(f"execute:{tl.id}")
            env = loop_env()
            if tl.analysis.info.trip_count(env) <= 0:
                # zero-trip loop: nothing to schedule, and the inferred
                # copy sections (e.g. a[0:n-1] with n == 0) would be
                # empty/negative — skip before evaluating them
                ctx.obs.metrics.counter("scheduler.zero_trip").inc()
                return 0
            if strategy == "japonica" and use_scheme == "stealing":
                run_loops = [tl]
                consumed = 0
                for stmt in following:
                    if isinstance(stmt, A.For) and stmt.annotation is not None:
                        nxt = by_node.get(id(stmt))
                        if nxt is None:
                            break
                        run_loops.append(nxt)
                        consumed += 1
                    else:
                        break
                tasks = [Task(lp) for lp in run_loops]
                label = "+".join(lp.id for lp in run_loops)
                with ctx.obs.tracer.span(
                    f"dispatch:{label}", PHASE_EXECUTE,
                    strategy=strategy, scheme=use_scheme,
                ) as sp:
                    result = stealing.execute(tasks, storage, env)
                    sp.annotate(mode=result.mode)
                    sp.set_sim(0.0, result.sim_time_s)
                record(label, result)
                write_back_scalars(env)
                return consumed
            with ctx.obs.tracer.span(
                f"dispatch:{tl.id}", PHASE_EXECUTE, strategy=strategy,
            ) as sp:
                if strategy == "japonica":
                    result = sharing.execute(Task(tl), storage, env)
                else:
                    result = baselines[strategy].execute(Task(tl), storage, env)
                sp.annotate(mode=result.mode)
                sp.set_sim(0.0, result.sim_time_s)
            record(tl.id, result)
            write_back_scalars(env)
            return 0

        host_cost = run_method_host(decl, storage, scalars, dispatch)
        host_time = ctx.cost.cpu_serial_time(host_cost.as_counts())
        total = host_time + sum(res.sim_time_s for _, res in loop_results)

        if self.inference is not None and ctx.profiles:
            # the scheduler profiled every uncertain loop it dispatched;
            # fold the DD verdicts back into the inference proposals
            # (confirm-or-reject loop of the inference pass)
            self.inference.absorb_profiles(ctx.profiles)

        report = ctx.faults.recorder.report() if ctx.faults.enabled else None
        if report is not None:
            record_resilience(ctx.obs.metrics, report)
        return ProgramResult(
            arrays=storage.arrays,
            scalars=scalars,
            sim_time_s=total,
            host_time_s=host_time,
            loop_results=loop_results,
            strategy=strategy,
            scheme=use_scheme if strategy == "japonica" else "",
            resilience=report,
        )

    # -- binding -------------------------------------------------------------

    @staticmethod
    def _bind(
        decl: A.Method, bindings: dict[str, object]
    ) -> tuple[ArrayStorage, dict[str, object]]:
        arrays: dict[str, np.ndarray] = {}
        scalars: dict[str, object] = {}
        missing = [p.name for p in decl.params if p.name not in bindings]
        if missing:
            raise JaponicaError(
                f"method {decl.name!r} missing bindings for {missing}"
            )
        extra = set(bindings) - {p.name for p in decl.params}
        if extra:
            raise JaponicaError(f"unknown bindings {sorted(extra)}")
        for p in decl.params:
            value = bindings[p.name]
            if isinstance(p.type, A.ArrayType):
                arr = np.array(value, dtype=_DTYPES[p.type.elem.name], copy=True)
                if arr.ndim != p.type.dims:
                    raise JaponicaError(
                        f"parameter {p.name!r} expects a {p.type.dims}-D "
                        f"array, got {arr.ndim}-D"
                    )
                arrays[p.name] = arr
            else:
                if p.type.name == "boolean":
                    scalars[p.name] = bool(value)
                elif p.type.name in ("float", "double"):
                    scalars[p.name] = float(value)
                else:
                    scalars[p.name] = int(value)
        return ArrayStorage(arrays), scalars


class Japonica:
    """Compiler + runtime entry point."""

    def __init__(
        self,
        platform: Optional[Platform] = None,
        config: Optional[JaponicaConfig] = None,
        cpu_threads: int = 16,
        obs: Optional[Instrumentation] = None,
        cache: Optional[ArtifactCache] = None,
        infer_annotations: bool = False,
        native: Optional[bool] = None,
        native_crosscheck: Optional[bool] = None,
    ):
        self.platform = platform
        # native tier knobs ride on the config; only materialize one when
        # the caller overrides a default, so config=None stays None (and
        # downstream default-construction paths are untouched)
        if native is not None or native_crosscheck is not None:
            from dataclasses import replace as _replace

            config = _replace(
                config or JaponicaConfig(),
                **({} if native is None else {"native": native}),
                **({} if native_crosscheck is None
                   else {"native_crosscheck": native_crosscheck}),
            )
        self.config = config
        self.obs = obs or NULL_INSTRUMENTATION
        self.cache = cache
        self._cpu_threads = cpu_threads
        #: infer ``acc`` directives for bare loops at compile time (loops
        #: that are already annotated are always left untouched)
        self.infer_annotations = infer_annotations
        self.translator = Translator(cpu_threads=cpu_threads, obs=self.obs)

    def compile(self, source: str, infer: Optional[bool] = None) -> CompiledProgram:
        """Translate annotated Java source into a runnable program.

        With a ``cache``, the parse→analyze→translate result is memoized
        by source content: an unchanged source skips the front end
        entirely on the second compile.

        ``infer`` overrides the instance's ``infer_annotations`` setting
        for this compile: with inference on, bare canonical loops get
        synthesized ``acc`` directives (see :mod:`repro.analysis.infer`)
        and the result carries a :class:`~repro.analysis.infer.
        InferenceReport` as ``program.inference``.
        """
        do_infer = self.infer_annotations if infer is None else infer
        unit = None
        report = None
        key = None
        if self.cache is not None:
            key = unit_key(source, self._cpu_threads, infer=do_infer)
            cached = self.cache.get(key, "unit", obs=self.obs)
            if cached is not None:
                unit, report = cached if do_infer else (cached, None)
        if unit is None:
            if do_infer:
                from .analysis.infer import infer_class
                from .lang.parser import parse_program
                from .obs.tracer import PHASE_PARSE

                with self.obs.tracer.span(
                    "parse", PHASE_PARSE, chars=len(source)
                ) as sp:
                    cls = parse_program(source)
                    sp.annotate(cls=cls.name, methods=len(cls.methods))
                report = infer_class(cls)
                unit = self.translator.translate(cls)
            else:
                unit = self.translator.translate_source(source)
            if key is not None:
                self.cache.put(key, (unit, report) if do_infer else unit)
        if not unit.methods:
            if do_infer:
                raise JaponicaError(
                    "no annotated loops found in the source and "
                    "annotation inference proposed none"
                )
            raise JaponicaError("no annotated loops found in the source")
        return CompiledProgram(
            unit,
            self.platform,
            self.config,
            obs=self.obs,
            cache=self.cache,
            inference=report,
        )

    def jit(
        self,
        fn=None,
        *,
        strategy: str = "japonica",
        scheme: Optional[str] = None,
        devices: Optional[int] = None,
        enabled: bool = True,
    ):
        """``@engine.jit``: lift a Python function onto this instance.

        Same contract as the module-level :func:`repro.jit`, but the
        lifted program compiles and runs with this engine's platform,
        config, observability, and artifact cache.
        """
        from .frontend.pyjit import jit as _jit

        return _jit(
            fn,
            japonica=self,
            strategy=strategy,
            scheme=scheme,
            devices=devices,
            enabled=enabled,
        )
