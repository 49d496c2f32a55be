"""The ``@repro.jit`` decorator: Python functions on the Japonica pipeline.

Per call-site type signature, the function's bytecode is lifted once
(lifter + typing), pushed through annotation inference and translation,
and cached as a :class:`_Specialization`; later calls with the same
signature reuse it.  Any :class:`LiftError` converts the specialization
into a *permanent, deterministic* fallback to the original function —
same inputs, same decision, every run — recorded as a
:class:`LiftReport`.

Observability is declared on the host plane (``jit.*`` counters and
``jit.lift:`` spans), so insight reports leave it out like the kernel
tier's instruments: whether a function was jitted is not simulated
behavior.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ...errors import JaponicaError
from ...lang import ast_nodes as A
from ...obs.tracer import PLANE_HOST
from .bytecode import SUPPORTED_VERSIONS, python_version_tag
from .errors import LiftError
from .lifter import RET_NAME, check_code_shape, lift_function
from .typing import build_class, java_type_of_value, signature_tag

#: Span category / metric prefix of bytecode lifting.
JIT_SPAN_CATEGORY = "jit"


def code_fingerprint(fn) -> str:
    """Stable fingerprint of a function's bytecode + Python version.

    Opcodes differ across 3.10–3.12, so the version tag is part of the
    identity: an interpreter upgrade misses the artifact cache instead
    of replaying a lift produced from different bytecode.
    """
    code = fn.__code__
    h = hashlib.sha256()
    h.update(f"pyjit/{python_version_tag()}\n".encode())
    h.update(code.co_code)
    h.update(repr((
        code.co_consts,
        code.co_names,
        code.co_varnames,
        code.co_argcount,
        code.co_flags & 0x2AC,  # generator/coroutine/varargs bits
    )).encode())
    return h.hexdigest()


@dataclass
class LiftReport:
    """What happened when one signature of one function was lifted."""

    function: str
    lifted: bool
    reason: Optional[str] = None       # FALLBACK_REASONS code, or None
    detail: str = ""
    signature: str = ""
    python_version: str = ""
    fingerprint: str = ""
    loops_total: int = 0
    loops_annotated: int = 0
    cache_hit: bool = False

    def decision(self) -> tuple:
        """The repeat-determinism contract: what must never vary."""
        return (self.function, self.lifted, self.reason, self.signature)


@dataclass
class _Specialization:
    ok: bool
    report: LiftReport
    program: object = None             # CompiledProgram when ok
    method: str = ""
    ret_type: Optional[A.PrimType] = None
    array_params: list = field(default_factory=list)


class JitFunction:
    """Callable wrapper produced by :func:`jit`."""

    def __init__(
        self,
        fn,
        japonica=None,
        strategy: str = "japonica",
        scheme: Optional[str] = None,
        devices: Optional[int] = None,
        enabled: bool = True,
    ):
        self._fn = fn
        self._japonica = japonica
        self._strategy = strategy
        self._scheme = scheme
        self._devices = devices
        self._enabled = enabled and os.environ.get("REPRO_JIT_DISABLE") != "1"
        self._signature = inspect.signature(fn)
        self._fingerprint = code_fingerprint(fn)
        self._specs: dict[str, _Specialization] = {}
        self.last_report: Optional[LiftReport] = None
        self.last_result = None  # ProgramResult of the last jitted call
        self.__name__ = fn.__name__
        self.__doc__ = fn.__doc__
        self.__wrapped__ = fn

    # -- lazy Japonica (decorating must work without one) -----------------

    def _engine(self):
        if self._japonica is None:
            from ...api import Japonica

            self._japonica = Japonica()
        return self._japonica

    # -- specialization ----------------------------------------------------

    def specialize(self, *args, **kwargs) -> LiftReport:
        """Lift + compile for these argument types without executing."""
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return self._specialization(bound.arguments).report

    def _specialization(self, arguments) -> _Specialization:
        try:
            check_code_shape(self._fn)
            params = [
                (name, java_type_of_value(value))
                for name, value in arguments.items()
            ]
            sig = signature_tag(params)
        except LiftError as err:
            # untypeable arguments: key the decision on the value types
            sig = "untypeable:" + ",".join(
                type(v).__name__ for v in arguments.values()
            )
            spec = self._specs.get(sig)
            if spec is None:
                spec = self._fallback_spec(sig, err)
                self._specs[sig] = spec
            return spec
        spec = self._specs.get(sig)
        if spec is None:
            spec = self._compile_spec(params, sig)
            self._specs[sig] = spec
        return spec

    def _fallback_spec(self, sig: str, err: LiftError) -> _Specialization:
        eng = self._engine()
        m = eng.obs.metrics
        m.counter("jit.lift.fallback", PLANE_HOST).inc()
        m.counter(f"jit.lift.fallback.{err.code}", PLANE_HOST).inc()
        return _Specialization(
            ok=False,
            report=LiftReport(
                function=self._fn.__name__,
                lifted=False,
                reason=err.code,
                detail=err.detail,
                signature=sig,
                python_version=python_version_tag(),
                fingerprint=self._fingerprint,
            ),
        )

    def _compile_spec(self, params, sig: str) -> _Specialization:
        eng = self._engine()
        name = self._fn.__name__
        if not self._enabled:
            return self._fallback_spec(sig, LiftError("disabled", name))
        if python_version_tag() not in SUPPORTED_VERSIONS:
            return self._fallback_spec(
                sig, LiftError("python-version", sys.version.split()[0])
            )
        cache = eng.cache
        key = None
        cached = None
        if cache is not None:
            from ...cache.artifacts import jit_unit_key

            key = jit_unit_key(self._fingerprint, sig, eng._cpu_threads)
            cached = cache.get(key, "unit", obs=eng.obs)
        with eng.obs.tracer.span(
            f"jit.lift:{name}", JIT_SPAN_CATEGORY, plane=PLANE_HOST,
            signature=sig,
        ):
            try:
                if cached is not None:
                    unit, inference, ret_t, n_loops = cached
                    eng.obs.metrics.counter(
                        "jit.lift.cache_hit", PLANE_HOST
                    ).inc()
                else:
                    lifted = lift_function(self._fn)
                    cls, ret_t = build_class(name, params, lifted)
                    n_loops = lifted.n_loops
                    from ...analysis.infer import infer_class
                    from ...translate.translator import Translator

                    inference = infer_class(cls)
                    # a host-plane translator: lifting is not simulated
                    # behavior, so its analyze/translate spans and the
                    # translate.loops counter must stay out of reports
                    unit = Translator(
                        cpu_threads=eng.translator.cpu_threads
                    ).translate(cls)
                    if key is not None:
                        cache.put(key, (unit, inference, ret_t, n_loops))
                if not unit.methods:
                    raise LiftError(
                        "no-parallel-loops",
                        "no loop was annotated by inference",
                    )
            except LiftError as err:
                spec = self._fallback_spec(sig, err)
                spec.report.loops_total = getattr(err, "n_loops", 0)
                spec.report.cache_hit = cached is not None
                return spec
            except JaponicaError as err:
                spec = self._fallback_spec(sig, LiftError("analysis-error", str(err)))
                spec.report.cache_hit = cached is not None
                return spec

        from ...api import CompiledProgram

        program = CompiledProgram(
            unit,
            eng.platform,
            eng.config,
            obs=eng.obs,
            cache=eng.cache,
            inference=inference,
        )
        eng.obs.metrics.counter("jit.lift.ok", PLANE_HOST).inc()
        eng.obs.metrics.counter("jit.lift.loops", PLANE_HOST).inc(
            sum(len(mt.loops) for mt in unit.methods.values())
        )
        report = LiftReport(
            function=name,
            lifted=True,
            signature=sig,
            python_version=python_version_tag(),
            fingerprint=self._fingerprint,
            loops_total=n_loops,
            loops_annotated=sum(len(mt.loops) for mt in unit.methods.values()),
            cache_hit=cached is not None,
        )
        return _Specialization(
            ok=True,
            report=report,
            program=program,
            method=name,
            ret_type=ret_t,
            array_params=[n for n, t in params if isinstance(t, A.ArrayType)],
        )

    # -- call --------------------------------------------------------------

    def __call__(self, *args, **kwargs):
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        spec = self._specialization(bound.arguments)
        self.last_report = spec.report
        eng = self._engine()
        if not spec.ok:
            eng.obs.metrics.counter("jit.call.fallback", PLANE_HOST).inc()
            return self._fn(*args, **kwargs)
        eng.obs.metrics.counter("jit.call.jit", PLANE_HOST).inc()
        try:
            result = spec.program.run(
                spec.method,
                strategy=self._strategy,
                scheme=self._scheme,
                devices=self._devices,
                **dict(bound.arguments),
            )
        except JaponicaError:
            # value-dependent runtime rejection (the lift itself was
            # sound).  ``run`` works on copies, so nothing was mutated:
            # the plain function on the untouched arguments is safe.
            eng.obs.metrics.counter(
                "jit.call.runtime_fallback", PLANE_HOST
            ).inc()
            return self._fn(*args, **kwargs)
        self.last_result = result
        # arrays are in/out: mirror Python's in-place mutation semantics
        for pname in spec.array_params:
            dest = bound.arguments[pname]
            np.copyto(dest, result.arrays[pname], casting="no")
        if spec.ret_type is not None:
            return result.scalars.get(RET_NAME)
        return None


def jit(
    fn=None,
    *,
    japonica=None,
    strategy: str = "japonica",
    scheme: Optional[str] = None,
    devices: Optional[int] = None,
    enabled: bool = True,
):
    """Decorate a plain Python function for the Japonica pipeline.

    Usable bare (``@repro.jit``) or configured
    (``@repro.jit(devices=4)``).  The wrapped function behaves exactly
    like the original: lifted loops run through classify -> infer ->
    profile -> schedule, argument arrays are mutated in place, a tail
    ``return`` value is returned; anything unliftable falls back to the
    original function (see ``fn.last_report.reason``).
    """
    def wrap(f):
        return JitFunction(
            f,
            japonica=japonica,
            strategy=strategy,
            scheme=scheme,
            devices=devices,
            enabled=enabled,
        )

    if fn is not None:
        return wrap(fn)
    return wrap
