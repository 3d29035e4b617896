"""Simulated CUDA substrate.

No GPU exists in this environment, so this subpackage provides a faithful
*model* of the paper's 2x NVIDIA Tesla K40 setup: device memory with the
reservation discipline of section 2.1.1, a pinned host-memory registration
pool (section 2.1.2), a PCIe gen3 transfer model, kernel launch accounting,
and group-by/sort kernels that compute real results with numpy while
reporting simulated durations from the calibrated cost model.
"""

from repro.gpu.device import GpuDevice, make_devices
from repro.gpu.memory import DeviceMemoryManager, Reservation
from repro.gpu.pinned import PinnedMemoryPool
from repro.gpu.transfer import transfer_seconds

__all__ = [
    "DeviceMemoryManager",
    "GpuDevice",
    "PinnedMemoryPool",
    "Reservation",
    "make_devices",
    "transfer_seconds",
]
