"""Test-only oracles: the eager flight recorder and the general phase tiling.

``EagerFlightRecorder`` feeds and reads its ring exactly as
``FlightRecorder`` did at commit 7c22521 — one ``FlightEvent`` built per
event fed, the eviction counter bumped through ``inc`` — and
``tile_phases`` is that commit's ``request_phases`` verbatim.  The
production code must agree with both to the last field
(``test_oracle_equivalence.py``); nothing under ``src/`` imports this.
"""

from __future__ import annotations

from repro.obs.recorder import FlightEvent, FlightRecorder
from repro.sim import RequestTrace


class EagerFlightRecorder(FlightRecorder):
    """The recorder before event construction was deferred to the read."""

    def _append(self, kind: str, name: str, time: float,
                attributes: dict) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
            if self._dropped_series is not None:
                self._dropped_series.inc()
        self._ring.append(FlightEvent(
            time=time, seq=self._seq, kind=kind, name=name,
            attributes=attributes,
        ))
        self._seq += 1

    def events(self) -> list[FlightEvent]:
        """Current ring contents, sorted by ``(time, seq)``."""
        return sorted(self._ring, key=lambda e: (e.time, e.seq))


def tile_phases(request: RequestTrace) -> list[tuple[str, float, float]]:
    """Partition ``[start, end]`` by every stage endpoint (any stage list)."""
    stages = [s for s in request.stages if s.end > s.start]
    bounds = {request.start, request.end}
    for stage in stages:
        bounds.add(min(max(stage.start, request.start), request.end))
        bounds.add(min(max(stage.end, request.start), request.end))
    points = sorted(bounds)
    segments: list[tuple[str, float, float]] = []
    for t0, t1 in zip(points, points[1:]):
        if t1 <= t0:
            continue
        kinds = {s.kind for s in stages if s.start <= t0 and s.end >= t1}
        if "gpu" in kinds:
            kind = "gpu"
        elif "cpu" in kinds:
            kind = "cpu"
        else:
            kind = "queue"
        if segments and segments[-1][0] == kind:
            segments[-1] = (kind, segments[-1][1], t1)
        else:
            segments.append((kind, t0, t1))
    return segments
