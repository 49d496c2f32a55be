"""Simulated GPU: device memory, warps, kernel launch engine."""

from .device import GpuDevice, LaunchResult
from .memory import DeviceAllocation, DeviceMemory, TransferStats
from .warp import iter_warp_spans

__all__ = [
    "DeviceAllocation",
    "DeviceMemory",
    "GpuDevice",
    "LaunchResult",
    "TransferStats",
    "iter_warp_spans",
]
