"""One store per monitor fact: the structural claim, counted.

The §2.3 monitor keeps no copy of what the tracer and the metrics
registry already hold: an offload decision is an ``offload.decision``
instant, a kernel launch is a ``gpu.launch`` span, and the monitor's
counters are registry series read by name.  Each assertion below failed
before the change it pins.
"""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.config import GpuSpec
from repro.core.monitoring import PerformanceMonitor
from repro.gpu.device import GpuDevice
from repro.obs.profile import build_profile

SRC = Path(repro.__file__).parent


def test_the_gpu_profiler_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.gpu.profiler")


@pytest.mark.parametrize("name", ["OffloadDecision", "Counters",
                                  "GpuProfiler", "KernelRecord",
                                  "KernelAggregate"])
def test_no_second_record_type_is_named(name):
    named = [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
             if re.search(rf"\b{name}\b", path.read_text())]
    assert not named, named


def test_build_profile_reads_decisions_from_its_trace():
    assert "decisions" not in inspect.signature(build_profile).parameters


def test_neither_monitor_nor_device_keeps_a_record_list():
    device = GpuDevice(0, GpuSpec())
    monitor = PerformanceMonitor([device])
    for attribute in ("decisions", "counters", "prometheus",
                      "chrome_trace"):
        assert not hasattr(monitor, attribute), attribute
    assert not hasattr(device, "profiler")
    # The host-clock harness times the monitor through this method.
    assert callable(PerformanceMonitor.record_profile)
