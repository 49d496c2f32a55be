"""Workload base: one benchmarked application of Table II.

Each workload carries its annotated mini-Java source, an input generator
(scaled down from the paper's problem sizes so the functional simulators
stay tractable — the paper's sizes are recorded for reference), and a
whole-array NumPy reference that does each output cell's floating-point
operations in the kernel's order, so every execution strategy is
verified bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..api import CompiledProgram, Japonica, ProgramResult
from ..errors import WorkloadError


@dataclass
class Workload:
    """One Table-II application."""

    name: str
    origin: str
    description: str
    scheme: str  # scheduling scheme the paper assigns ('sharing'|'stealing')
    method: str
    source: str
    #: paper's problem size description (column 4 of Table II)
    paper_problem: str
    #: our scaled default parameters
    default_params: dict[str, int]
    #: bindings(n, seed, **overrides) -> dict of method arguments
    make_inputs: Callable[..., dict] = None  # type: ignore[assignment]
    #: reference(bindings) -> expected arrays after the run
    reference: Callable[[dict], dict[str, np.ndarray]] = None  # type: ignore
    #: paper-scale projection factors: how much more work / bytes /
    #: iterations the paper's problem size has vs. our simulated default
    work_scale: float = 1.0
    byte_scale: float = 1.0
    iter_scale: float = 1.0
    #: per-app sustained Java fraction-of-peak, fitted so the projected
    #: serial time matches Table II's serial column (None = platform default)
    java_efficiency: Optional[float] = None
    #: per-app effective host<->device bandwidth multiplier (JNI
    #: marshalling quality), fitted from the paper's figure ratios
    link_scale: float = 1.0
    _program: Optional[CompiledProgram] = field(default=None, repr=False)

    def compile(self, japonica: Optional[Japonica] = None) -> CompiledProgram:
        """Compile (cached per-workload unless a custom Japonica is given)."""
        if japonica is not None:
            return japonica.compile(self.source)
        if self._program is None:
            self._program = Japonica().compile(self.source)
        return self._program

    def bindings(self, n: int = 1, seed: int = 0, **overrides) -> dict:
        if self.make_inputs is None:
            raise WorkloadError(f"{self.name}: no input generator")
        return self.make_inputs(n=n, seed=seed, **overrides)

    def stripped_source(self) -> str:
        """The workload's source with every ``acc`` directive removed.

        This is the annotation-inference test subject: a functionally
        identical program that carries no parallelism hints, pretty-
        printed back to parseable mini-Java.
        """
        from ..lang import fmt_class, parse_program, strip_annotations

        cls = parse_program(self.source)
        strip_annotations(cls)
        return fmt_class(cls)

    def make_context(
        self,
        paper_scale: bool = True,
        obs=None,
        cache=None,
        devices: int = 1,
        native: bool = True,
        native_crosscheck: bool = False,
    ):
        """Execution context with this workload's calibration applied."""
        from dataclasses import replace

        from ..runtime.platform import paper_platform
        from ..scheduler.context import ExecutionContext, JaponicaConfig

        platform = paper_platform()
        if self.java_efficiency is not None:
            platform = platform.with_(
                cpu=replace(platform.cpu, java_efficiency=self.java_efficiency)
            )
        config = JaponicaConfig(
            devices=devices,
            native=native,
            native_crosscheck=native_crosscheck,
        )
        if paper_scale:
            config.work_scale = self.work_scale
            config.byte_scale = self.byte_scale
            config.iter_scale = self.iter_scale
            config.link_scale = self.link_scale
        return ExecutionContext(platform, config, obs=obs, cache=cache)

    def run(
        self,
        strategy: str = "japonica",
        n: int = 1,
        seed: int = 0,
        japonica: Optional[Japonica] = None,
        scheme: Optional[str] = None,
        context=None,
        paper_scale: bool = True,
        faults=None,
        fault_seed: int = 0,
        cache=None,
        devices: int = 1,
        native: bool = True,
        native_crosscheck: bool = False,
        **overrides,
    ) -> ProgramResult:
        """Execute under a strategy.

        By default the run uses a context calibrated for paper-scale
        projection (``make_context``); pass ``paper_scale=False`` for raw
        simulated-size costs, or an explicit ``context``.  ``faults`` /
        ``fault_seed`` turn on deterministic fault injection (see
        :meth:`CompiledProgram.run`).
        """
        program = self.compile(japonica)
        binds = self.bindings(n=n, seed=seed, **overrides)
        ctx = (
            context
            if context is not None
            else self.make_context(
                paper_scale, cache=cache, devices=devices,
                native=native, native_crosscheck=native_crosscheck,
            )
        )
        return program.run(
            self.method,
            strategy=strategy,
            scheme=scheme or self.scheme,
            context=ctx,
            faults=faults,
            fault_seed=fault_seed,
            **binds,
        )

    def verify(self, result: ProgramResult, bindings: dict) -> None:
        """Check a result against the reference; raises AssertionError."""
        if self.reference is None:
            raise WorkloadError(f"{self.name}: no reference implementation")
        from ..runtime.result import verify_same_results

        verify_same_results(result.arrays, self.reference(bindings))
