"""Multi-GPU device pool.

A pool is N simulated :class:`~repro.gpusim.device.GpuDevice` instances
with (mildly) heterogeneous clocks and memory bandwidths, as found in
real multi-GPU boxes where card bins and PCIe topology differ.  Device 0
is the *primary* device: the context's own device, which profiling and
the TLS / privatized engines also run on.  A single GPU is a pool of
one — the schedulers run the same code at every pool size, so a pool of
size 1 is the seed runtime by construction: identical cost model,
identical fault-probe order, identical timeline.

The pool is deliberately dumb: it owns the devices, their per-device
cost models, and liveness bookkeeping (a device killed by the fault
plane is marked dead and excluded from placement until revived).
Placement lives in the schedulers: the sharing pipeline in
:mod:`repro.scheduler.sharing` (over the pure helpers of
:mod:`repro.scheduler.sharding`) and the per-device queues of
:mod:`repro.scheduler.stealing`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..faults.resilience import FaultRuntime
from ..ir.native import KernelDispatcher
from ..obs.metrics import NULL_INSTRUMENTATION, Instrumentation
from ..runtime.costmodel import CostModel
from ..runtime.platform import GpuSpec, Platform
from .device import GpuDevice

#: Per-device clock / bandwidth factors, cycled by device id.  Device 0
#: is always 1.0/1.0 (it *is* the calibrated paper device); later devices
#: model bin spread across otherwise-identical cards.
HETERO_FREQ_FACTORS = (1.0, 0.85, 1.1, 0.95)
HETERO_BW_FACTORS = (1.0, 0.9, 1.05, 1.0)


def pool_spec(base: GpuSpec, device_id: int) -> GpuSpec:
    """The spec of pool device ``device_id`` derived from the base card."""
    f = HETERO_FREQ_FACTORS[device_id % len(HETERO_FREQ_FACTORS)]
    b = HETERO_BW_FACTORS[device_id % len(HETERO_BW_FACTORS)]
    if f == 1.0 and b == 1.0:
        return base
    return replace(
        base,
        freq_ghz=base.freq_ghz * f,
        mem_bandwidth_gbps=base.mem_bandwidth_gbps * b,
    )


class DevicePool:
    """N simulated GPUs sharing one fault plane and one metrics plane.

    ``primary`` and ``primary_cost`` are the context's existing device-0
    objects: reusing them (rather than building a parallel device 0)
    means profiling and the mode-B/D engines, which run on the context's
    device, share device 0's allocation table and fault-probe identity
    with the pool pipeline.
    """

    def __init__(
        self,
        primary: GpuDevice,
        primary_cost: CostModel,
        platform: Platform,
        size: int = 1,
        faults: Optional[FaultRuntime] = None,
        obs: Optional[Instrumentation] = None,
        kernels: Optional[KernelDispatcher] = None,
    ):
        if size < 1:
            raise ValueError(f"device pool needs >= 1 device, got {size}")
        self.platform = platform
        obs = obs or NULL_INSTRUMENTATION
        # every pool device shares the primary's dispatcher: one compile
        # per kernel fingerprint for the whole pool, not one per device
        kernels = kernels or primary.kernels
        self.devices: list[GpuDevice] = [primary]
        self.costs: list[CostModel] = [primary_cost]
        for k in range(1, size):
            spec = pool_spec(platform.gpu, k)
            cost = CostModel(
                platform.with_(gpu=spec),
                work_scale=primary_cost.work_scale,
                byte_scale=primary_cost.byte_scale,
                iter_scale=primary_cost.iter_scale,
                link_scale=primary_cost.link_scale,
            )
            self.devices.append(
                GpuDevice(spec, cost, faults=faults, obs=obs, device_id=k,
                          kernels=kernels)
            )
            self.costs.append(cost)
        self._dead: set[int] = set()

    # -- topology --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.devices)

    @property
    def primary(self) -> GpuDevice:
        return self.devices[0]

    def device(self, device_id: int) -> GpuDevice:
        return self.devices[device_id]

    def cost_of(self, device_id: int) -> CostModel:
        return self.costs[device_id]

    def signature(self) -> str:
        """Content signature of the pool topology (for cache keys)."""
        return repr([(d.device_id, d.spec) for d in self.devices])

    # -- liveness --------------------------------------------------------

    def is_alive(self, device_id: int) -> bool:
        return device_id not in self._dead

    def alive_ids(self) -> list[int]:
        return [k for k in range(self.size) if k not in self._dead]

    def mark_dead(self, device_id: int) -> None:
        """Exclude a device from placement (fault plane killed it)."""
        self._dead.add(device_id)

    def revive_all(self) -> None:
        self._dead.clear()

    # -- throughput ------------------------------------------------------

    def weight(self, device_id: int) -> float:
        """Relative shard weight of a device: ``C_k * F_k`` (the same
        core-count x frequency convention the paper's boundary uses)."""
        spec = self.devices[device_id].spec
        return spec.cores * spec.freq_ghz

    def alive_weight(self) -> float:
        return sum(self.weight(k) for k in self.alive_ids())

    def sharing_boundary(self) -> float:
        """Generalized paper boundary: ``sum(Ci*Fi) / (sum + Cc*Fc)``.

        At pool size 1 with every device alive this is exactly
        :meth:`Platform.sharing_boundary`.
        """
        gpus = self.alive_weight()
        cpu = self.platform.cpu.cores * self.platform.cpu.freq_ghz
        if gpus <= 0:
            return 0.0
        return gpus / (gpus + cpu)

    def reset_memory(self) -> None:
        """Fresh allocation tables everywhere + revive dead devices."""
        for d in self.devices:
            d.memory.free_all()
        self.revive_all()
