"""Unit tests for the simulated clock."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock


class TestClock:
    def test_advance(self):
        clock = SimClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0
        assert clock.now == 2.0

    def test_advance_to(self):
        clock = SimClock(start=1.0)
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_backwards_rejected(self):
        clock = SimClock(start=5.0)
        with pytest.raises(SimulationError):
            clock.advance(-1.0)
        with pytest.raises(SimulationError):
            clock.advance_to(4.0)

    def test_tiny_negative_tolerated(self):
        clock = SimClock(start=1.0)
        clock.advance(-1e-15)        # floating noise, clamped to zero
        assert clock.now == 1.0

