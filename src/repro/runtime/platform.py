"""Hardware platform model.

The paper's testbed is two Intel Xeon X5650 CPUs (12 cores @ 2.66 GHz, 16
worker threads plus 2 management threads) and one Nvidia Fermi M2050 (448
CUDA cores across 14 SMs @ 1.15 GHz), JDK 1.6 + CUDA 3.2 over PCIe gen2.

We model each device with a small set of interpretable throughput
parameters.  The defaults below are *calibrated*: starting from physical
values (core counts, frequencies, bandwidths), the efficiency and overhead
factors were fitted so the simulated benchmark suite reproduces the
speedup ratios the paper reports (see EXPERIMENTS.md for the fit).  The
dominant effects are faithful to the paper's explanation: JIT-compiled
Java sustains a small fraction of peak on the CPU, the JNI-managed
synchronous transfer path of the GPU-alone build is far slower than the
asynchronous pre-fetch path the task-sharing runtime uses, and the
GPU-alone build pays cyclic communication (re-transfers per kernel)
that the sharing runtime removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CpuSpec:
    """CPU-side throughput model."""

    cores: int = 12
    freq_ghz: float = 2.66
    worker_threads: int = 16
    ipc: float = 2.0
    #: Fraction of peak issue rate that JIT-compiled Java loop code sustains.
    java_efficiency: float = 0.006
    #: Sustained memory bandwidth (GB/s) across the two sockets.
    mem_bandwidth_gbps: float = 8.0
    #: Per-parallel-region overhead (thread pool dispatch), seconds.
    fork_join_overhead_s: float = 30e-6

    @property
    def scalar_ops_per_sec(self) -> float:
        """Sustained scalar op throughput of one worker thread."""
        return self.freq_ghz * 1e9 * self.ipc * self.java_efficiency


@dataclass(frozen=True)
class GpuSpec:
    """GPU-side throughput model (Fermi M2050 class)."""

    cores: int = 448
    sms: int = 14
    warp_size: int = 32
    freq_ghz: float = 1.15
    ipc: float = 1.0
    #: Fraction of peak the translated kernels sustain.  Fitted to the
    #: paper's figures: the JavaR->CUDA kernels are naive (one iteration
    #: per thread, no tiling, double precision on Fermi), and the paper's
    #: own GEMM numbers imply roughly 1-2 GFLOP/s achieved.
    kernel_efficiency: float = 0.015
    #: Device global-memory bandwidth (GB/s).
    mem_bandwidth_gbps: float = 12.0
    #: Kernel launch + JNI invocation overhead, seconds.
    launch_overhead_s: float = 10e-6
    #: Extra cost multiplier for special-function ops (div, sqrt, exp...).
    special_cost: float = 8.0

    @property
    def scalar_ops_per_sec_total(self) -> float:
        """Aggregate scalar op throughput across all cores."""
        return self.cores * self.freq_ghz * 1e9 * self.ipc * self.kernel_efficiency


@dataclass(frozen=True)
class InterconnectSpec:
    """Host<->device transfer model.

    ``sync_gbps`` is the JNI-managed synchronous path (Java heap array ->
    JNI copy -> cudaMemcpy), the only path the GPU-alone build uses.
    ``async_gbps`` is the pinned-staging asynchronous path used by the
    task-sharing runtime's pre-fetcher.  ``cyclic_factor`` multiplies the
    bytes the GPU-alone build moves, modelling the cyclic communication
    (per-kernel re-transfers) that the paper's communication optimizer
    removes [Jablin et al., ref 6].
    """

    sync_gbps: float = 0.2
    async_gbps: float = 0.5
    latency_s: float = 15e-6
    cyclic_factor: float = 1.0


@dataclass(frozen=True)
class Platform:
    """A heterogeneous CPU+GPU platform."""

    cpu: CpuSpec = field(default_factory=CpuSpec)
    gpu: GpuSpec = field(default_factory=GpuSpec)
    link: InterconnectSpec = field(default_factory=InterconnectSpec)

    def sharing_boundary(self) -> float:
        """Paper's boundary value ``Cg*Fg / (Cg*Fg + Cc*Fc)``.

        The fraction of the iteration space preferentially executed on the
        GPU under the task-sharing scheme.
        """
        cg_fg = self.gpu.cores * self.gpu.freq_ghz
        cc_fc = self.cpu.cores * self.cpu.freq_ghz
        return cg_fg / (cg_fg + cc_fc)

    def with_(self, **kwargs) -> "Platform":
        """Return a platform with selected sub-specs replaced."""
        return replace(self, **kwargs)


def paper_platform() -> Platform:
    """The calibrated model of the paper's evaluation platform."""
    return Platform()


def symmetric_platform() -> Platform:
    """A platform where CPU and GPU have equal aggregate throughput.

    Used by scheduler unit tests to make boundary arithmetic predictable
    (boundary = 1/2).
    """
    return Platform(
        cpu=CpuSpec(cores=8, freq_ghz=1.0, worker_threads=8, ipc=1.0,
                    java_efficiency=1.0, mem_bandwidth_gbps=50.0),
        gpu=GpuSpec(cores=8, sms=1, freq_ghz=1.0, kernel_efficiency=1.0,
                    mem_bandwidth_gbps=50.0),
    )
