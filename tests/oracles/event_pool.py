"""The event-driven fetch worker pool (schedule oracle).

What ``repro.core.engine.WorkerPool`` was before it placed tasks in
closed form: every task is one event on the loop, a FIFO queue waits in
front of ``size`` workers, and a waiting task is taken when a running
one's event fires.  The closed-form pool is held to the schedule this
pool produces: the same ``(taken, landing)`` per task.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Tuple

from repro.net.events import EventLoop


class EventWorkerPool:
    """A bounded pool of fetch workers as a discrete-event resource.

    ``submit`` queues one task; at most ``size`` tasks occupy workers at
    any simulated instant, the rest wait their turn.
    """

    def __init__(self, loop: EventLoop, size: int) -> None:
        if size < 1:
            raise ValueError(f"worker pool needs at least 1 worker, got {size}")
        self.loop = loop
        self.size = size
        self._busy = 0
        self._waiting: Deque[Tuple[float, Callable[[float], None]]] = deque()
        self.peak_busy = 0
        self.tasks_run = 0

    @property
    def busy(self) -> int:
        return self._busy

    @property
    def queued(self) -> int:
        return len(self._waiting)

    def submit(self, duration: float, on_done: Callable[[float], None]) -> None:
        """Queue one task; when it lands, ``on_done`` runs with the
        instant a worker took it."""
        self._waiting.append((duration, on_done))
        self._drain()

    def _drain(self) -> None:
        while self._busy < self.size and self._waiting:
            duration, on_done = self._waiting.popleft()
            self._busy += 1
            self.peak_busy = max(self.peak_busy, self._busy)
            taken = self.loop.clock.now

            def fire(cb: Callable[[float], None] = on_done, taken: float = taken) -> None:
                self._busy -= 1
                self.tasks_run += 1
                cb(taken)
                self._drain()

            self.loop.call_at(taken + duration, fire)
