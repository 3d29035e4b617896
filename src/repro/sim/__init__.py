"""Discrete-event simulation of concurrent query execution.

The paper's multi-user results (Table 3, Figures 8 and 9) hinge on one
mechanism: offloading group-by/sort work to the GPUs frees CPU cores that
other concurrently-running queries immediately absorb.  This subpackage
replays per-query cost profiles (produced by one functional execution)
through a processor-sharing model of the 24-core host plus per-device GPU
queues with memory admission, and reports makespans, throughput and the
device-memory utilisation traces.
"""

from repro.sim.clock import SimClock
from repro.sim.resources import GpuDeviceState, ProcessorSharingPool
from repro.sim.simulator import (
    PhaseInterval,
    QueryCompletion,
    RequestTrace,
    SimulationResult,
    UserScript,
    WorkloadSimulator,
)

__all__ = [
    "GpuDeviceState",
    "PhaseInterval",
    "ProcessorSharingPool",
    "QueryCompletion",
    "RequestTrace",
    "SimClock",
    "SimulationResult",
    "UserScript",
    "WorkloadSimulator",
]
