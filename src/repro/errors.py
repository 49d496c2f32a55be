"""Exception hierarchy for the Japonica reproduction."""

from __future__ import annotations

from contextlib import contextmanager


class JaponicaError(Exception):
    """Base class for all errors raised by this package."""


class LexError(JaponicaError):
    """Raised when the lexer encounters malformed source text."""


class ParseError(JaponicaError):
    """Raised when the parser encounters a syntactically invalid program."""


class AnnotationError(JaponicaError):
    """Raised when an ``/* acc ... */`` directive is malformed (Table I)."""


class AnalysisError(JaponicaError):
    """Raised when static analysis cannot process a loop nest."""


class TypeCheckError(JaponicaError):
    """Raised on type mismatches while lowering the AST to kernel IR."""


class LoweringError(JaponicaError):
    """Raised when an AST construct cannot be lowered to the kernel IR."""


@contextmanager
def nesting_guard(loop_id: str):
    """Report a recursion overflow in a loop's front end as a
    :class:`LoweringError` naming the loop."""
    try:
        yield
    except RecursionError:
        raise LoweringError(
            f"loop {loop_id}: source nested too deeply to translate"
        ) from None


class DeviceError(JaponicaError):
    """Raised by the GPU simulator on invalid device operations."""


class MemoryFault(DeviceError):
    """Raised on out-of-bounds or unmapped simulated-device memory access."""


class LaunchError(DeviceError):
    """Raised for invalid kernel-launch configurations."""


class SchedulerError(JaponicaError):
    """Raised on invalid scheduling requests (unknown scheme, empty plan...)."""


class SpeculationError(JaponicaError):
    """Raised when the TLS engine is driven through an illegal state."""


class WorkloadError(JaponicaError):
    """Raised by benchmark workloads on invalid parameters."""


class RuntimeFaultError(JaponicaError):
    """Base of the fault-plane hierarchy: a runtime fault with context.

    ``site`` is the fault-plane probe site that produced the error,
    ``at_s`` the simulated-clock timestamp when it was raised, and
    ``retries`` how many recovery attempts preceded it.  ``injected`` is
    True for errors raised directly by the fault plane (as opposed to
    typed escalations after recovery gave up).
    """

    def __init__(
        self,
        message: str = "",
        site: str = "",
        at_s: float = 0.0,
        retries: int = 0,
        injected: bool = False,
    ):
        super().__init__(message)
        self.site = site
        self.at_s = at_s
        self.retries = retries
        self.injected = injected

    def __str__(self) -> str:  # pragma: no cover - formatting
        base = super().__str__()
        ctx = []
        if self.site:
            ctx.append(f"site={self.site}")
        if self.retries:
            ctx.append(f"retries={self.retries}")
        if self.at_s:
            ctx.append(f"at={self.at_s * 1e3:.3f}ms")
        return f"{base} [{', '.join(ctx)}]" if ctx else base


class LaunchFault(RuntimeFaultError):
    """A kernel launch failed at the device (transient driver fault)."""


class WatchdogTimeout(RuntimeFaultError):
    """A kernel hung; the watchdog killed it after its timeout."""


class TransferError(RuntimeFaultError):
    """A host<->device transfer failed and may be re-issued."""


class DeviceMemoryFault(RuntimeFaultError, MemoryFault):
    """A device allocation-table entry was corrupted (injected)."""


class WorkerFault(RuntimeFaultError):
    """A CPU worker died mid-chunk; ``completed`` iterations finished."""

    def __init__(self, message: str = "", completed: int = 0, **context):
        super().__init__(message, **context)
        self.completed = completed


class UnrecoverableFaultError(RuntimeFaultError):
    """Every rung of the degradation ladder failed; the run is aborted.

    This is the *only* way a fault schedule may surface to the caller:
    either a run commits bit-identical results or it raises this error.
    """


class NativeMismatch(JaponicaError):
    """A native kernel tier diverged from the interpreter oracle.

    Raised only in ``native_crosscheck`` mode, where every native
    kernel execution is replayed through the scalar interpreter and the
    two results are compared bitwise (arrays, work counts, per-lane
    totals, speculative lane state, address traces).  The interpreter's
    result always wins; this error names what diverged.
    """


class DeadlineExceeded(JaponicaError):
    """A request's wall-clock budget ran out at a pipeline phase boundary.

    Raised by :meth:`ExecutionContext.check_deadline` *before* a phase
    starts, never mid-phase, so a cancelled run leaves no partial writes
    behind: array state is exactly what the last completed phase left.
    """

    def __init__(self, message: str = "", phase: str = "",
                 budget_s: float = 0.0, overrun_s: float = 0.0):
        super().__init__(message)
        self.phase = phase
        self.budget_s = budget_s
        self.overrun_s = overrun_s


class WorkerDied(JaponicaError):
    """A serve-pool worker died before acknowledging its job.

    The job itself is pure (results travel in-band), so the service may
    retry it on another worker without risking duplicated side effects;
    the ledger still enforces at-most-one settlement per job id.

    Carries the job's identity (``job_id``, ``tenant``, ``trace_id``)
    so a worker-death fault in a log or flight dump is never anonymous:
    the message names exactly whose dispatch was lost.
    """

    def __init__(self, message: str = "", worker: str = "",
                 job_id: str = "", tenant: str = "", trace_id: str = ""):
        super().__init__(message)
        self.worker = worker
        self.job_id = job_id
        self.tenant = tenant
        self.trace_id = trace_id
