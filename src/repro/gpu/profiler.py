"""GPU performance monitoring (section 2.3).

The paper could not use nvidia-smi to profile kernels inside a host
application, so they built their own monitor wired into BLU's monitoring
infrastructure.  :class:`GpuProfiler` is that component: every kernel launch
and transfer on a device is recorded with its simulated timing, and the
aggregate views (per-kernel totals, transfer/compute split) are what the
paper used to tune kernels.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class KernelRecord:
    """One kernel invocation as the monitor saw it."""

    kernel: str
    device_id: int
    rows: int
    transfer_in_seconds: float
    kernel_seconds: float
    transfer_out_seconds: float
    device_bytes: int
    launch_overhead: float
    bytes_in: int = 0
    bytes_out: int = 0

    @property
    def total_seconds(self) -> float:
        return (self.launch_overhead + self.transfer_in_seconds
                + self.kernel_seconds + self.transfer_out_seconds)

    @property
    def transfer_seconds(self) -> float:
        return self.transfer_in_seconds + self.transfer_out_seconds


@dataclass
class KernelAggregate:
    """Aggregated statistics for one kernel name."""

    invocations: int = 0
    rows: int = 0
    kernel_seconds: float = 0.0
    transfer_seconds: float = 0.0
    device_bytes_peak: int = 0
    bytes_moved: int = 0

    @property
    def total_seconds(self) -> float:
        return self.kernel_seconds + self.transfer_seconds

    @property
    def transfer_fraction(self) -> float:
        total = self.total_seconds
        return self.transfer_seconds / total if total else 0.0


class GpuProfiler:
    """Collects kernel records for one device."""

    def __init__(self, device_id: int) -> None:
        self.device_id = device_id
        self.records: list[KernelRecord] = []

    def record(self, record: KernelRecord) -> None:
        self.records.append(record)

    @property
    def total_transfer_seconds(self) -> float:
        return sum(r.transfer_seconds for r in self.records)

    @property
    def total_seconds(self) -> float:
        return sum(r.total_seconds for r in self.records)

    def by_kernel(self) -> dict[str, KernelAggregate]:
        out: dict[str, KernelAggregate] = {}
        for r in self.records:
            agg = out.setdefault(r.kernel, KernelAggregate())
            agg.invocations += 1
            agg.rows += r.rows
            agg.kernel_seconds += r.kernel_seconds
            agg.transfer_seconds += r.transfer_seconds
            agg.device_bytes_peak = max(agg.device_bytes_peak, r.device_bytes)
            agg.bytes_moved += r.bytes_in + r.bytes_out
        return out

    def report(self) -> str:
        """Human-readable per-kernel summary (the tuning view)."""
        lines = [f"GPU {self.device_id} kernel profile"]
        header = (f"{'kernel':24} {'calls':>6} {'rows':>12} "
                  f"{'kernel ms':>10} {'xfer ms':>10} {'xfer %':>7}")
        lines.append(header)
        lines.append("-" * len(header))
        for name, agg in sorted(self.by_kernel().items()):
            lines.append(
                f"{name:24} {agg.invocations:>6} {agg.rows:>12} "
                f"{agg.kernel_seconds * 1e3:>10.3f} "
                f"{agg.transfer_seconds * 1e3:>10.3f} "
                f"{agg.transfer_fraction * 100:>6.1f}%"
            )
        return "\n".join(lines)
