"""Benchmark arithmetic shared by the figure tests and the wall harness."""

from repro.bench.runner import gain_percent, speedup

__all__ = ["gain_percent", "speedup"]
