"""The paper's primary contribution: hybrid CPU/GPU query processing.

This subpackage wires the simulated GPUs into the BLU engine exactly along
the seams the paper describes: optimizer-metadata path selection (Figure 3),
the one cost gate every split past it is judged by, the rewired group-by
chain (Figure 2), the moderator that picks (or races) group-by kernels,
the job-queue hybrid sort, and the multi-GPU scheduler.

The public entry point is
:class:`repro.core.accelerator.GpuAcceleratedEngine`.
"""

from repro.core.accelerator import GpuAcceleratedEngine, make_engine
from repro.core.metadata import RuntimeMetadata
from repro.core.moderator import GpuModerator, LearningModerator
from repro.core.monitoring import PerformanceMonitor
from repro.core.pathselect import (ExecutionPath, PathDecision, Verdict,
                                   judge, select_groupby_path)
from repro.core.scheduler import MultiGpuScheduler

__all__ = [
    "ExecutionPath",
    "GpuAcceleratedEngine",
    "GpuModerator",
    "LearningModerator",
    "MultiGpuScheduler",
    "PathDecision",
    "PerformanceMonitor",
    "RuntimeMetadata",
    "Verdict",
    "judge",
    "make_engine",
    "select_groupby_path",
]
