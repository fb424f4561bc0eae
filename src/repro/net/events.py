"""Discrete-event simulation clock and event loop.

All components of the reproduction that need a notion of "now" (stores
drifting prices over days, the Table-1 queueing model, heartbeats of the
request-distribution protocol) share a :class:`Clock`.  Simulated time is
measured in seconds since the epoch of the deployment window the paper
analyzes (August 2015); helpers convert to days for the temporal
experiments.

The :class:`EventLoop` is a classic heap-driven engine: callbacks are
scheduled with ``loop.call_at(t, fn)`` / ``loop.call_later(dt, fn)``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

SECONDS_PER_DAY = 86_400.0


class Clock:
    """Monotonic simulated clock (seconds since the simulation epoch)."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    @property
    def day(self) -> float:
        """Current time expressed in (fractional) days."""
        return self._now / SECONDS_PER_DAY

    def advance(self, seconds: float) -> float:
        """Move the clock forward; negative advances are a bug."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self._now += seconds
        return self._now

    def advance_to(self, when: float) -> float:
        """Jump forward to an absolute time; going backwards is a bug."""
        if when < self._now:
            raise ValueError(f"cannot rewind clock from {self._now} to {when}")
        self._now = when
        return self._now

    def advance_days(self, days: float) -> float:
        return self.advance(days * SECONDS_PER_DAY)


@dataclass(order=True)
class _Event:
    when: float
    seq: int
    fn: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventHandle:
    """Handle returned by the scheduling calls; allows cancellation."""

    def __init__(self, event: _Event) -> None:
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def when(self) -> float:
        return self._event.when

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


class EventLoop:
    """Heap-based discrete-event loop sharing a :class:`Clock`."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._heap: List[_Event] = []
        self._seq = itertools.count()
        self._processed = 0

    # -- scheduling ------------------------------------------------------
    def call_at(self, when: float, fn: Callable[[], None]) -> EventHandle:
        if when < self.clock.now:
            raise ValueError(
                f"cannot schedule event at {when} before now={self.clock.now}"
            )
        event = _Event(when=when, seq=next(self._seq), fn=fn)
        heapq.heappush(self._heap, event)
        return EventHandle(event)

    def call_later(self, delay: float, fn: Callable[[], None]) -> EventHandle:
        return self.call_at(self.clock.now + max(0.0, delay), fn)

    # -- execution -------------------------------------------------------
    @property
    def pending(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    @property
    def processed(self) -> int:
        """Number of events executed so far (useful in tests)."""
        return self._processed

    def _pop(self) -> Optional[_Event]:
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_next(self) -> Optional[float]:
        """Time of the next live event, or None with an empty queue."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].when if self._heap else None

    def step(self) -> bool:
        """Execute exactly one event (advancing the clock to it).

        Returns False when the queue is empty.  This is the primitive
        the pipelined price-check engine pumps from ``poll``: advance
        the simulation just far enough for the next fetch to land.
        """
        event = self._pop()
        if event is None:
            return False
        self.clock.advance_to(event.when)
        self._processed += 1
        event.fn()
        return True

    def run_until(self, deadline: float) -> None:
        """Execute events with ``when <= deadline``; clock ends at deadline."""
        while True:
            # peek past cancelled heads: a dead event before the
            # deadline must not pull a live event from beyond it
            upcoming = self.peek_next()
            if upcoming is None or upcoming > deadline:
                break
            event = self._pop()
            if event is None:  # pragma: no cover - peek guarantees one
                break
            self.clock.advance_to(event.when)
            self._processed += 1
            event.fn()
        self.clock.advance_to(max(self.clock.now, deadline))

    def run(self, max_events: Optional[int] = None) -> None:
        """Drain the queue (optionally bounded by ``max_events``)."""
        count = 0
        while True:
            if max_events is not None and count >= max_events:
                return
            event = self._pop()
            if event is None:
                return
            self.clock.advance_to(event.when)
            self._processed += 1
            event.fn()
            count += 1
