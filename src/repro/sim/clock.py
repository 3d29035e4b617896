"""Simulated wall clock."""

from __future__ import annotations

from repro.errors import SimulationError


class SimClock:
    """A monotonically advancing simulated time source (seconds)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, delta: float) -> float:
        if delta < -1e-12:
            raise SimulationError(f"clock cannot move backwards ({delta})")
        self._now += delta if delta > 0.0 else 0.0
        return self._now

    def advance_to(self, timestamp: float) -> float:
        if timestamp < self._now - 1e-12:
            raise SimulationError(
                f"advance_to({timestamp}) is before now ({self._now})"
            )
        self._now = max(self._now, timestamp)
        return self._now
