"""Execution context: devices, cost model, configuration, profile cache."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..cache.artifacts import ArtifactCache, profile_key
from ..cpusim.executor import CpuExecutor
from ..faults.resilience import FaultRuntime
from ..gpusim.device import GpuDevice
from ..gpusim.pool import DevicePool
from ..ir.interpreter import ArrayStorage
from ..ir.native import KernelDispatcher
from ..obs.metrics import NULL_INSTRUMENTATION, Instrumentation
from ..obs.tracer import PHASE_PROFILE
from ..profiler.report import DEFAULT_DD_THRESHOLD, DependencyProfile
from ..profiler.trace import profile_loop
from ..runtime.costmodel import CostModel
from ..runtime.deadline import Deadline
from ..runtime.platform import Platform, paper_platform
from ..tls.engine import TlsConfig
from ..translate.translator import TranslatedLoop

#: iterations the profiler instruments (a prefix sample of the loop)
PROFILE_SAMPLE = 8192


@dataclass
class JaponicaConfig:
    """Runtime tuning knobs."""

    #: threshold N of the workflow diagram: TD density above N is 'high'
    dd_threshold: float = DEFAULT_DD_THRESHOLD
    #: CPU worker threads ("we set the number of threads as 16")
    cpu_threads: int = 16
    #: TLS engine configuration (mode B)
    tls: TlsConfig = field(default_factory=lambda: TlsConfig(warps_per_subloop=32))
    #: override the sharing boundary (None = paper formula)
    boundary_override: Optional[float] = None
    #: disable the async-prefetch pipeline (ablation)
    async_prefetch: bool = True
    #: paper-scale projection factors (see runtime.costmodel.CostModel)
    work_scale: float = 1.0
    byte_scale: float = 1.0
    iter_scale: float = 1.0
    link_scale: float = 1.0
    #: simulated GPUs in the device pool (a single GPU is a pool of one)
    devices: int = 1
    #: native kernel backend: run every kernel as generated
    #: type-specialized source from its first launch.  Semantics are
    #: bit-identical by construction; turn off to run the interpreter,
    #: the oracle, everywhere.
    native: bool = True
    #: run every native launch twice — native on scratch storage, the
    #: interpreter on the real storage — and raise NativeMismatch on any
    #: divergence (arrays, counters, per-lane fuel, lane states)
    native_crosscheck: bool = False


class ExecutionContext:
    """Everything an execution strategy needs, plus the profile cache.

    Profiles are cached per loop id: the paper profiles a loop once and
    reuses the dependency information across scheduling decisions.
    """

    def __init__(
        self,
        platform: Optional[Platform] = None,
        config: Optional[JaponicaConfig] = None,
        faults: Optional[FaultRuntime] = None,
        obs: Optional[Instrumentation] = None,
        cache: Optional[ArtifactCache] = None,
    ):
        self.platform = platform or paper_platform()
        self.config = config or JaponicaConfig()
        self.cost = CostModel(
            self.platform,
            work_scale=self.config.work_scale,
            byte_scale=self.config.byte_scale,
            iter_scale=self.config.iter_scale,
            link_scale=self.config.link_scale,
        )
        # one FaultRuntime shared by every component so a schedule
        # installed through it is seen everywhere at once
        self.faults = faults or FaultRuntime()
        # one Instrumentation bundle likewise shared by every component;
        # the default is the no-op plane (zero overhead, no state)
        self.obs = obs or NULL_INSTRUMENTATION
        # one kernel dispatcher shared by every executor of the context:
        # devices and CPU hit the same process-wide compile cache, so an
        # N-device pool compiles each kernel once, not N times
        self.kernels = KernelDispatcher(
            obs=self.obs,
            native=self.config.native,
            crosscheck=self.config.native_crosscheck,
        )
        self.device = GpuDevice(
            self.platform.gpu, self.cost, faults=self.faults, obs=self.obs,
            kernels=self.kernels,
        )
        # the pool wraps the primary device as its device 0, so a pool of
        # one runs the same pipeline as any larger pool
        self.pool = DevicePool(
            self.device,
            self.cost,
            self.platform,
            size=max(1, self.config.devices),
            faults=self.faults,
            obs=self.obs,
            kernels=self.kernels,
        )
        self.cpu = CpuExecutor(
            self.platform.cpu, self.cost, faults=self.faults, obs=self.obs,
            kernels=self.kernels,
        )
        self.profiles: dict[str, DependencyProfile] = {}
        # optional wall-clock budget of the current request (serve plane);
        # checked at phase boundaries so cancellation is always clean
        self.deadline: Optional[Deadline] = None
        # optional cross-context artifact cache (content-keyed); the
        # per-loop-id dict above stays the first-level cache within a run
        self.cache = cache
        # pool topology is part of the signature only beyond one device,
        # so seed-era cache entries stay valid for single-GPU runs
        pool_sig = self.pool.signature() if self.pool.size > 1 else None
        self._platform_sig = repr((
            self.platform,
            self.config.work_scale,
            self.config.byte_scale,
            self.config.iter_scale,
            self.config.link_scale,
        ) + ((pool_sig,) if pool_sig is not None else ())
          # the execution tier is part of the signature: artifacts
          # produced by the native backend never serve an interpreter-only
          # run (and vice versa), even though both are bit-identical
          + (("native-v1",) if self.config.native else ()))

    @property
    def scheduler_seed(self) -> int:
        """Seed for deterministic scheduler tie-breaks.

        Follows the installed fault schedule's seed so a chaos failure
        replayed with the same ``--fault-seed`` reproduces the identical
        placement decisions.
        """
        schedule = self.faults.plane.schedule
        return schedule.seed if schedule is not None else 0

    def reset_device(self) -> None:
        """Fresh device memory pool-wide (new application run)."""
        self.pool.reset_memory()

    def check_deadline(self, phase: str) -> None:
        """Enforce the request deadline at a phase boundary (if any)."""
        if self.deadline is not None:
            self.deadline.check(phase)

    def boundary(self) -> float:
        if self.config.boundary_override is not None:
            return self.config.boundary_override
        return self.pool.sharing_boundary()

    def ensure_profile(
        self,
        loop: TranslatedLoop,
        indices: Sequence[int],
        scalar_env: dict[str, object],
        storage: ArrayStorage,
    ) -> DependencyProfile:
        """Profile the loop on the GPU (once), caching the result."""
        if loop.id in self.profiles:
            return self.profiles[loop.id]
        self.check_deadline(f"profile:{loop.id}")
        if loop.fn is None:
            raise ValueError(f"loop {loop.id} cannot run on the GPU")
        # second-level content-keyed cache across contexts/processes.
        # Bypassed under fault injection: profiling launches consume
        # fault-schedule probes, and a cache hit would skip those draws
        # and desynchronise the deterministic schedule.
        key = None
        if self.cache is not None and not self.faults.enabled:
            key = profile_key(
                loop.fn,
                indices[:PROFILE_SAMPLE],
                scalar_env,
                storage,
                self.device.spec.warp_size,
                self._platform_sig,
            )
            cached = self.cache.get(
                key, "profile", obs=self.obs, copy_value=True
            )
            if cached is not None:
                self.profiles[loop.id] = cached
                return cached
        with self.obs.tracer.span(
            f"profile:{loop.id}", PHASE_PROFILE, loop=loop.id
        ) as sp:
            run = profile_loop(
                self.device,
                loop.fn,
                indices,
                scalar_env,
                storage,
                max_sample=PROFILE_SAMPLE,
            )
            profile = run.profile
            sp.annotate(
                sampled=run.sampled_iterations,
                td_density=profile.td_density,
                fd_density=profile.fd_density,
            )
            sp.set_sim(0.0, profile.profile_time_s)
        m = self.obs.metrics
        m.counter("profile.runs").inc()
        m.counter("profile.time_s").inc(profile.profile_time_s)
        m.histogram("profile.td_density").observe(profile.td_density)
        m.histogram("profile.fd_density").observe(profile.fd_density)
        self.profiles[loop.id] = profile
        if key is not None:
            self.cache.put(key, profile)
        return profile
