"""Job model of the compilation service.

A :class:`JobSpec` is what a tenant submits (over HTTP or directly to
the service): either a ``compile`` job carrying annotated mini-Java
source, or a ``run`` job naming a Table-II workload with its parameters.
Both travel as plain dicts so the HTTP layer and the process-pool
transport share one wire format.

A :class:`JobResult` is the terminal answer.  Every job ends in exactly
one of the :data:`TERMINAL_STATUSES`; the :class:`JobLedger` enforces
that an *admitted* job settles exactly once — the invariant the chaos
suite reconciles after driving the server through worker deaths.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import asdict, dataclass, field
from typing import Optional

from ..errors import JaponicaError

#: Job priorities (lower number = more important).
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2
PRIORITIES = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)

#: Terminal job statuses.
STATUS_OK = "ok"                  #: completed; payload attached
STATUS_FAILED = "failed"          #: pipeline error / retries exhausted
STATUS_REJECTED = "rejected"      #: admission control said no (retry later)
STATUS_SHED = "shed"              #: degradation ladder dropped the job
STATUS_DEADLINE = "deadline"      #: wall-clock budget ran out
STATUS_BREAKER_OPEN = "breaker_open"  #: tenant circuit breaker is open

TERMINAL_STATUSES = (
    STATUS_OK,
    STATUS_FAILED,
    STATUS_REJECTED,
    STATUS_SHED,
    STATUS_DEADLINE,
    STATUS_BREAKER_OPEN,
)

_seq = itertools.count(1)


@dataclass
class JobSpec:
    """One tenant request."""

    tenant: str
    kind: str = "run"  # "run" | "compile"
    #: run jobs: Table-II workload name + parameters
    workload: Optional[str] = None
    n: int = 1
    seed: int = 0
    strategy: str = "japonica"
    scheme: Optional[str] = None
    devices: int = 1
    #: compile jobs: annotated mini-Java source
    source: Optional[str] = None
    #: scheduling priority (0 high .. 2 low); the shedding ladder drops
    #: priority-2 jobs first
    priority: int = PRIORITY_NORMAL
    #: wall-clock budget in milliseconds (None = service default)
    deadline_ms: Optional[float] = None
    #: request a PR-5 insight report section with the result (dropped
    #: first by the degradation ladder)
    report: bool = False
    #: per-job fault-injection spec (chaos testing through the service)
    faults: Optional[str] = None
    fault_seed: int = 0
    #: check run results against the workload's NumPy reference
    verify: bool = False
    #: assigned by the service at submission
    job_id: str = ""

    def __post_init__(self):
        if not self.job_id:
            self.job_id = f"job-{next(_seq)}"

    def validate(self) -> None:
        """Raise :class:`JaponicaError` on a malformed spec."""
        if not self.tenant or not isinstance(self.tenant, str):
            raise JaponicaError("job needs a non-empty tenant")
        if self.kind not in ("run", "compile"):
            raise JaponicaError(
                f"unknown job kind {self.kind!r}; expected 'run' or 'compile'"
            )
        if self.kind == "run" and not self.workload:
            raise JaponicaError("run jobs need a workload name")
        if self.kind == "compile" and not self.source:
            raise JaponicaError("compile jobs need annotated source text")
        if self.priority not in PRIORITIES:
            raise JaponicaError(
                f"priority must be one of {PRIORITIES}, got {self.priority}"
            )
        if self.devices < 1:
            raise JaponicaError(f"devices must be >= 1, got {self.devices}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise JaponicaError(
                f"deadline_ms must be > 0, got {self.deadline_ms}"
            )
        if self.faults is not None:
            # validate the spec grammar up front: a malformed --faults
            # string must be a pointed 400, never a mid-run traceback
            from ..faults.schedule import FaultSchedule

            FaultSchedule.parse(self.faults, seed=self.fault_seed)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "JobSpec":
        if not isinstance(doc, dict):
            raise JaponicaError("job document must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise JaponicaError(f"unknown job fields {sorted(unknown)}")
        return cls(**doc)

    #: content key for the cache-only degradation rung: two identical
    #: requests (any tenant) may share one completed answer.  ``verify``
    #: and ``report`` are left out; the service matches them itself
    def result_key(self) -> str:
        if self.kind == "compile":
            digest = hashlib.sha256((self.source or "").encode()).hexdigest()
            return f"compile/{digest}"
        return (
            f"run/{self.workload}/{self.n}/{self.seed}/{self.strategy}/"
            f"{self.scheme}/{self.devices}/{self.faults}/{self.fault_seed}"
        )


@dataclass
class JobResult:
    """Terminal answer for one job."""

    job_id: str
    tenant: str
    status: str
    kind: str = "run"
    #: simulated + host wall time of the pipeline (run jobs)
    sim_time_ms: float = 0.0
    host_time_ms: float = 0.0
    #: execution modes the scheduler chose, one per loop
    modes: list[str] = field(default_factory=list)
    #: compile jobs: per-loop analysis verdicts
    compile: Optional[dict] = None
    #: PR-5 insight report section (None when dropped by the ladder)
    report: Optional[dict] = None
    #: resilience summary when fault injection was on
    resilience: Optional[dict] = None
    #: degradation level the job was served under + what was dropped
    degrade_level: int = 0
    degraded: list[str] = field(default_factory=list)
    #: scheduling metadata
    attempts: int = 1
    retry_after_s: Optional[float] = None
    served_from_cache: bool = False
    wall_ms: float = 0.0
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "JobResult":
        return cls(**doc)


class JobLedger:
    """Exactly-once settlement accounting for admitted jobs.

    ``admit`` registers a job; ``settle`` records its single terminal
    status and raises on a duplicate.  After a chaos run the suite
    asserts ``unsettled()`` is empty (no lost jobs) and
    ``duplicate_settlements == 0`` (no double answers).
    """

    def __init__(self):
        self.admitted: dict[str, Optional[str]] = {}
        self.refused: dict[str, str] = {}
        #: per-settled-job context record (tenant, trace id, attempts):
        #: parallel to ``admitted`` so post-mortems can name whose job a
        #: settlement was without changing the status-keyed view the
        #: chaos suite reconciles
        self.records: dict[str, dict] = {}
        self.duplicate_settlements = 0

    def admit(self, job: JobSpec) -> None:
        if job.job_id in self.admitted:
            raise JaponicaError(f"job {job.job_id} admitted twice")
        self.admitted[job.job_id] = None

    def refuse(self, job: JobSpec, status: str) -> None:
        """Record a pre-admission refusal (reject/shed/breaker)."""
        self.refused[job.job_id] = status

    def settle(self, job_id: str, status: str, tenant: str = "",
               trace_id: str = "", attempts: int = 0) -> None:
        if status not in TERMINAL_STATUSES:
            raise JaponicaError(f"not a terminal status: {status!r}")
        if job_id not in self.admitted:
            raise JaponicaError(f"job {job_id} settled without admission")
        if self.admitted[job_id] is not None:
            self.duplicate_settlements += 1
            raise JaponicaError(f"job {job_id} settled twice")
        self.admitted[job_id] = status
        self.records[job_id] = {
            "status": status,
            "tenant": tenant,
            "trace_id": trace_id,
            "attempts": attempts,
        }

    def unsettled(self) -> list[str]:
        return [jid for jid, st in self.admitted.items() if st is None]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for status in self.admitted.values():
            if status is not None:
                out[status] = out.get(status, 0) + 1
        for status in self.refused.values():
            out[status] = out.get(status, 0) + 1
        return out
