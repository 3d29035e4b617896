"""Span tracing over simulated time.

A :class:`Tracer` records a tree of :class:`Span` objects per query.  The
timestamps come from a :class:`repro.sim.clock.SimClock` that the engine's
instrumentation advances as cost events are accounted, so a trace is a
causal, zero-jitter replay of the simulated execution — the same numbers
the serial timing model reports, laid out on a timeline.

Two span flavours exist:

- *enclosing* spans (:meth:`Tracer.span`) close at whatever simulated time
  the clock has reached when the ``with`` block exits — operators use
  these, and nested ledger events advance the clock inside them;
- *timed* spans (:meth:`Tracer.timed_span`) advance the clock by an
  explicit duration — the GPU substrate uses these for transfer-in /
  kernel / transfer-out windows whose lengths it just computed.

Instants (:meth:`Tracer.instant`) are zero-duration marks for decisions.

:data:`NULL_TRACER` is a shared no-op used wherever tracing is not wired,
so instrumented code never branches on "is tracing on?".
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.sim.clock import SimClock


@dataclass(slots=True)
class Span:
    """One named, timed node of a trace tree (times in simulated seconds)."""

    name: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float = 0.0
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """Collects spans; one trace id per root span, deterministic ids."""

    enabled = True

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock or SimClock()
        self.spans: list[Span] = []        # in start order
        self._stack: list[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        #: Span-completion listeners: callables ``(flavor, span)`` invoked
        #: when a span finishes (``"span"``), an instant is recorded
        #: (``"instant"``), or a post-hoc span is appended (``"record"``).
        #: The flight recorder (:mod:`repro.obs.recorder`) subscribes here.
        self.listeners: list = []

    def _emit(self, flavor: str, span: Span) -> None:
        """Deliver one finished span to every subscribed listener."""
        for listener in self.listeners:
            listener(flavor, span)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def advance(self, seconds: float) -> None:
        """Move simulated time forward (negative deltas are clamped)."""
        self.clock.advance(max(0.0, seconds))

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def _open(self, name: str, attributes: dict,
              parent: Optional[Span], start: float, end: float) -> Span:
        """Append a span under ``parent`` (none: it starts a new trace)."""
        span = Span(
            name,
            parent.trace_id if parent else next(self._trace_ids),
            next(self._span_ids),
            parent.span_id if parent else None,
            start,
            end,
            attributes,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Enclosing span: ends at the clock's position on block exit."""
        now = self.clock.now
        span = self._open(name, attributes, self.current, now, now)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = max(span.start, self.clock.now)
            self._emit("span", span)

    @contextmanager
    def timed_span(self, name: str, seconds: float,
                   **attributes: Any) -> Iterator[Span]:
        """Span of a known duration: advances the clock by ``seconds``."""
        with self.span(name, **attributes) as span:
            self.advance(seconds)
            yield span

    def instant(self, name: str, **attributes: Any) -> Span:
        """Zero-duration mark (decision points, errors, fallbacks)."""
        now = self.clock.now
        span = self._open(name, attributes, self.current, now, now)
        self._emit("instant", span)
        return span

    def record(self, name: str, start: float, end: float,
               parent: Optional[Span] = None, **attributes: Any) -> Span:
        """Append an already-finished span with explicit timestamps.

        The concurrent serving driver replays a simulation *after* it
        ran, so its session/request/phase spans are reconstructed from
        the simulator's event log rather than opened live; this is the
        post-hoc entry point.  Ids stay deterministic (same counters as
        live spans); a span without a parent starts a new trace.
        """
        span = self._open(name, attributes, parent, start, max(start, end))
        self._emit("record", span)
        return span

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def trace(self, trace_id: int) -> list[Span]:
        """All spans of one trace, in start order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def children_of(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def clear(self) -> None:
        """Drop recorded spans (open spans, if any, stay on the stack)."""
        self.spans.clear()


class NullTracer(Tracer):
    """A tracer that records nothing and never advances time.

    Shared default for every instrumentation point so that hot paths do
    not branch on whether observability is wired in.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_span = Span(name="", trace_id=0, span_id=0,
                               parent_id=None, start=0.0)

    def advance(self, seconds: float) -> None:
        pass

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        yield self._null_span

    @contextmanager
    def timed_span(self, name: str, seconds: float,
                   **attributes: Any) -> Iterator[Span]:
        yield self._null_span

    def instant(self, name: str, **attributes: Any) -> Span:
        return self._null_span

    def record(self, name: str, start: float, end: float,
               parent: Optional[Span] = None, **attributes: Any) -> Span:
        return self._null_span


NULL_TRACER = NullTracer()
