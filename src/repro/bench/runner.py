"""Gain and speed-up arithmetic shared by the paper tests and wall harness."""

from __future__ import annotations


def gain_percent(baseline: float, accelerated: float) -> float:
    """Percentage improvement of ``accelerated`` over ``baseline``.

    Positive means the accelerated configuration is faster (for elapsed
    times) — callers flip the arguments for throughput-style metrics.
    """
    if baseline == 0:
        return 0.0
    return (baseline - accelerated) / baseline * 100.0


def speedup(baseline: float, accelerated: float) -> float:
    if accelerated == 0:
        return float("inf")
    return baseline / accelerated
