"""The pipelined price-check engine.

The paper's deployment fans each check out to ~30 IPCs plus PPCs "at
the same time" (Sect. 3.2), and Table 1 shows the architecture is sized
by how many such fan-outs it can keep in flight.  This module is the
concurrency model on top of the Measurement server's fan-out:

* every fetch a job performs becomes a task on a bounded per-server
  :class:`WorkerPool` scheduled on the world's
  :class:`repro.net.events.EventLoop` — the one clock every component
  reads.  The fan-out itself runs at the job's dispatch instant, which
  is the "same time" of Sect. 3.2; the world clock then advances as
  the fetches land, and the job is reported complete to the
  Coordinator when its last fetch lands;
* a :class:`JobHandle` is the one object a price check is: the entry
  point that admits the job (a Measurement server, or the queue tier)
  returns it, and :meth:`PriceCheckEngine.submit` places that same
  handle on the timeline.  It tracks which rows have *landed* in
  simulated time and which were already delivered to the add-on's
  progressive AJAX polls, and the engine is the only place that
  advances it;
* a short-TTL :class:`PageCache` keyed by ``(url, vantage,
  client-state)`` lets simultaneous checks of the same product reuse a
  just-fetched page instead of re-fetching it — and, since everything
  the $heriff derives from a page is a function of its bytes, reuse
  what the first check derived from it too: each :class:`CachedPage`
  carries the name of the page's stored diff and the result rows read
  from it, and they expire with it.  Entries are evicted oldest first
  as new pages are put, so the cache holds one TTL window of pages.

Determinism: the engine never decides *what* is fetched or in which
order — the Measurement server performs the fan-out eagerly in the
canonical serial order, so every RNG stream (world, faults, latency) is
consumed identically however many workers the pools have.  The engine
only decides *when* each fetch lands on the simulated timeline.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.errors import UnknownJob
from repro.core.pricecheck import PriceCheckResult
from repro.net.events import EventLoop
from repro.obs import NULL_TELEMETRY

__all__ = [
    "CachedPage",
    "JobHandle",
    "PageCache",
    "PriceCheckEngine",
    "WorkerPool",
]

#: rows handed out per progressive poll (the AJAX page-size)
POLL_BATCH_ROWS = 8

#: lifecycle states of a JobHandle (``queued``: waiting in the queue
#: tier's outbox, not yet fanned out)
QUEUED = "queued"
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: simulated cost of serving a page out of the cache (a local lookup,
#: no network round trip)
CACHE_HIT_SECONDS = 0.005


class JobHandle:
    """A price check: what its entry point's ``submit`` returns.

    The handle owns everything the caller may ask about a job: its
    terminal result or error, how far the simulated fan-out has
    progressed (``rows_arrived``), how many rows the progressive polls
    already handed out (``rows_delivered``), and whether the 'request
    finish' reply (or the job's error) was delivered (``closed``) —
    after which the job is gone and a further poll raises
    :class:`UnknownJob`.
    """

    def __init__(self, job_id: str, server_name: str, state: str = PENDING) -> None:
        self.job_id = job_id
        #: the Measurement server that owns (or ran) the job
        self.server_name = server_name
        self.state = state
        #: sum of the simulated durations of every fetch this job made —
        #: the job's cost on a one-fetch-at-a-time (serial) backend
        self.service_seconds = 0.0
        #: world-clock time the job was placed on the engine / its last
        #: fetch landed
        self.submitted_at = 0.0
        self.finished_at: Optional[float] = None
        self.error: Optional[BaseException] = None
        self._result: Optional[PriceCheckResult] = None
        #: rows whose fetch has landed on the simulated timeline
        self.rows_arrived = 0
        #: rows already handed to the caller through poll()
        self.rows_delivered = 0
        #: 'request finish' (or the job's error) was handed out
        self.closed = False

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)

    @property
    def total_rows(self) -> int:
        return len(self._result.rows) if self._result is not None else 0

    @property
    def result(self) -> Optional[PriceCheckResult]:
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobHandle({self.job_id!r}, server={self.server_name!r}, "
            f"state={self.state!r}, rows={self.rows_arrived}/{self.total_rows})"
        )


class WorkerPool:
    """A bounded pool of fetch workers as a discrete-event resource.

    ``submit`` queues one task; at most ``size`` tasks occupy workers at
    any simulated instant, the rest wait their turn — exactly the
    fetcher-thread pool a real Measurement server would run.
    """

    def __init__(self, loop: EventLoop, size: int, name: str) -> None:
        if size < 1:
            raise ValueError(f"worker pool needs at least 1 worker, got {size}")
        self.loop = loop
        self.size = size
        self._busy = 0
        self._waiting: Deque[Tuple[float, Callable[[], None]]] = deque()
        self.peak_busy = 0
        self.tasks_run = 0
        #: the Measurement server the pool works for
        self.name = name

    @property
    def busy(self) -> int:
        return self._busy

    @property
    def queued(self) -> int:
        return len(self._waiting)

    def submit(self, duration: float, on_done: Callable[[], None]) -> None:
        self._waiting.append((duration, on_done))
        self._drain()

    def _drain(self) -> None:
        while self._busy < self.size and self._waiting:
            duration, on_done = self._waiting.popleft()
            self._busy += 1
            self.peak_busy = max(self.peak_busy, self._busy)

            def fire(cb: Callable[[], None] = on_done) -> None:
                self._busy -= 1
                self.tasks_run += 1
                cb()
                self._drain()

            self.loop.call_later(duration, fire)


class CachedPage:
    """One page-cache entry: a fetch and what was read from its page.

    The Measurement server fills the two derived fields the first time
    it reads the page and reuses them on every hit:

    * ``stored_as`` — ``(diffstore, (job_id, proxy_id))`` of the first
      stored diff of this page; a later reader in the same
      :class:`~repro.core.diffstorage.DiffStorage` stores an alias of it
      instead of diffing the page again.  ``None`` until a store
      succeeded.
    * ``rows`` — ``(path entries, path target, requested currency,
      now) → ResultRow``: a row is a function of the page, the job's
      Tags Path, the requested currency and the rates at ``now``.
    """

    __slots__ = ("stored_at", "fetch", "stored_as", "rows")

    def __init__(self, stored_at: float, fetch: Any) -> None:
        self.stored_at = stored_at
        self.fetch = fetch
        self.stored_as: Optional[Tuple[Any, Tuple[str, str]]] = None
        self.rows: Dict[Tuple[Tuple[str, ...], str, str, float], Any] = {}


class PageCache:
    """Short-TTL page cache keyed by ``(url, vantage, client-state)``.

    Vantage matters because the same product renders differently per
    country/profile — that is the phenomenon under measurement — so a
    page is only reused for the *same* vantage point in the *same*
    client state.  In practice only IPC fetches qualify (their state is
    always ``"fresh"``); a PPC's client state mutates with every serve
    (pollution budgets, doppelganger swaps), so no two PPC fetches share
    a key.  TTL is in simulated seconds; ``ttl=0`` disables the cache.

    Entries sit in insertion order, which is age order (simulated time
    never runs backwards): every :meth:`put` first evicts the expired
    ones from the front, so the cache — and the diff names and rows its
    entries carry — never outlives one TTL window of puts.
    """

    def __init__(self, ttl: float = 0.0, telemetry=NULL_TELEMETRY) -> None:
        self.ttl = ttl
        self._pages: "OrderedDict[Tuple[str, str, str], CachedPage]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        telemetry.registry.sampled(
            "counter", "sheriff_cache_hits_total", "Page-cache hits", (),
            lambda: self.hits,
        )
        telemetry.registry.sampled(
            "counter", "sheriff_cache_misses_total", "Page-cache misses", (),
            lambda: self.misses,
        )

    @property
    def enabled(self) -> bool:
        return self.ttl > 0

    def get(self, key: Tuple[str, str, str], now: float) -> Optional[CachedPage]:
        if not self.enabled:
            return None
        entry = self._pages.get(key)
        if entry is None or now - entry.stored_at > self.ttl:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: Tuple[str, str, str], fetch: Any, now: float) -> CachedPage:
        """Cache a fresh fetch; returns its entry (kept only if enabled)."""
        entry = CachedPage(now, fetch)
        if self.enabled:
            self.purge_expired(now)
            self._pages.pop(key, None)  # a re-put key moves to the back
            self._pages[key] = entry
        return entry

    def purge_expired(self, now: float) -> None:
        """Evict the expired entries: the oldest, from the front."""
        pages = self._pages
        while pages and now - next(iter(pages.values())).stored_at > self.ttl:
            pages.popitem(last=False)


class PriceCheckEngine:
    """Schedules every server's fetches on the world's event loop.

    One engine per deployment: all Measurement servers share its loop
    (so concurrent jobs on different servers overlap on the timeline)
    but each server gets its own bounded :class:`WorkerPool`.
    """

    def __init__(
        self,
        loop: EventLoop,
        max_workers: int = 8,
        cache: Optional[PageCache] = None,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.loop = loop
        self.max_workers = max_workers
        self.cache = cache if cache is not None else PageCache(ttl=0.0)
        self._pools: Dict[str, WorkerPool] = {}
        self.jobs_scheduled = 0
        registry = telemetry.registry
        self._m_submitted = registry.counter(
            "sheriff_engine_jobs_submitted_total",
            "Jobs scheduled on the engine", labelnames=("server",),
        )
        self._m_completed = registry.counter(
            "sheriff_engine_jobs_completed_total",
            "Jobs that reached a terminal state",
            labelnames=("server", "state"),
        )
        self._m_latency = registry.histogram(
            "sheriff_check_latency_seconds",
            "Per-check latency on the simulated timeline",
            labelnames=("server",),
        )
        registry.sampled(
            "gauge", "sheriff_engine_workers_busy",
            "Fetch workers currently occupied", ("server",),
            lambda: {(name,): pool.busy for name, pool in self._pools.items()},
        )
        registry.sampled(
            "gauge", "sheriff_engine_queue_depth",
            "Fetch tasks waiting for a worker", ("server",),
            lambda: {(name,): pool.queued for name, pool in self._pools.items()},
        )

    @property
    def now(self) -> float:
        return self.loop.clock.now

    def pool_for(self, server_name: str) -> WorkerPool:
        pool = self._pools.get(server_name)
        if pool is None:
            pool = self._pools[server_name] = WorkerPool(
                self.loop, self.max_workers, name=server_name
            )
        return pool

    def drop_pool(self, server_name: str) -> None:
        """Forget a detached server's pool.  Tasks already on the
        timeline keep a reference to it, so they still land."""
        self._pools.pop(server_name, None)

    # -- the job lifecycle (submit → poll → result) -----------------------
    def submit(
        self,
        handle: JobHandle,
        tasks: List[Tuple[float, bool]],
        result: Optional[PriceCheckResult] = None,
        error: Optional[BaseException] = None,
        on_done: Optional[Callable[[], None]] = None,
    ) -> JobHandle:
        """Place one executed fan-out on the timeline, in ``handle``.

        ``tasks`` is the fan-out's fetch timeline (see :meth:`schedule`);
        exactly one of ``result``/``error`` is its outcome.  A job that
        arrived with an error is terminal immediately — no worker time
        is spent on a fan-out that already failed.  ``on_done`` runs
        when a job without error lands its last fetch.
        """
        handle._result = result
        handle.error = error
        handle.service_seconds = sum(d for d, _ in tasks)
        if error is not None:
            handle.rows_arrived = handle.total_rows
            handle.state = FAILED
            return handle
        self.schedule(handle, tasks, on_done)
        return handle

    @staticmethod
    def _open(handle: JobHandle) -> None:
        if handle.closed:
            raise UnknownJob(f"unknown or finished job {handle.job_id!r}")

    def poll(self, handle: JobHandle) -> Tuple[List[Any], bool]:
        """One progressive poll: (rows landed since last poll, finished).

        Pumps the loop just far enough for something new to land, then
        hands out at most :data:`POLL_BATCH_ROWS` rows in canonical
        order.  Raises the job's error if it ended in a failure report.
        The finishing poll (or the error) closes the handle.
        """
        self._open(handle)
        if handle.error is not None:
            handle.closed = True
            raise handle.error
        if not handle.finished:
            self.pump(handle)
        available = handle.rows_arrived - handle.rows_delivered
        batch = handle._result.rows[
            handle.rows_delivered:
            handle.rows_delivered + min(POLL_BATCH_ROWS, available)
        ] if handle._result is not None else []
        handle.rows_delivered += len(batch)
        finished = handle.finished and handle.rows_delivered >= handle.total_rows
        handle.closed = finished
        return list(batch), finished

    def result(self, handle: JobHandle) -> Optional[PriceCheckResult]:
        """Drive the handle to its terminal state; return (or raise) it.

        Either way the handle is closed.
        """
        self._open(handle)
        handle.closed = True
        self.drive(handle)
        handle.rows_delivered = handle.total_rows
        if handle.error is not None:
            raise handle.error
        return handle._result

    # -- scheduling ------------------------------------------------------
    def schedule(
        self,
        handle: JobHandle,
        tasks: List[Tuple[float, bool]],
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        """Put one job's fetch timeline on the loop.

        ``tasks`` carries one ``(duration, produced_row)`` entry per
        fetch the job attempted, in canonical order (the initiator's
        own page is first and costs nothing — it arrived with the
        request; a failed fetch occupies a worker for its timeout but
        lands no row).  ``rows_arrived`` counts the row-producing tasks
        as they complete the worker pool, and the last task — row or
        not — marks the handle finished and runs ``on_done``.
        """
        handle.submitted_at = self.now
        handle.state = RUNNING
        self.jobs_scheduled += 1
        self._m_submitted.inc(server=handle.server_name)
        pool = self.pool_for(handle.server_name)
        remaining = len(tasks)
        if remaining == 0:
            self._finish(handle, on_done)
            return

        def landed(is_row: bool) -> None:
            nonlocal remaining
            if is_row:
                handle.rows_arrived += 1
            remaining -= 1
            if remaining == 0:
                self._finish(handle, on_done)

        for duration, is_row in tasks:
            pool.submit(duration, lambda r=is_row: landed(r))

    def _finish(
        self, handle: JobHandle, on_done: Optional[Callable[[], None]]
    ) -> None:
        handle.finished_at = self.now
        handle.state = FAILED if handle.error is not None else DONE
        self._m_completed.inc(server=handle.server_name, state=handle.state)
        self._m_latency.observe(
            handle.finished_at - handle.submitted_at,
            server=handle.server_name,
        )
        if on_done is not None:
            on_done()

    # -- pumping ---------------------------------------------------------
    def pump(self, handle: JobHandle) -> None:
        """Advance simulated time until the handle has something new.

        Steps the loop until at least one undelivered row has arrived
        or the job reached a terminal state — the discrete-event
        equivalent of one AJAX poll blocking briefly on the server.
        """
        while (
            not handle.finished
            and handle.rows_arrived <= handle.rows_delivered
        ):
            if not self.loop.step():
                break

    def drive(self, handle: JobHandle) -> None:
        """Advance simulated time until the handle is terminal."""
        while not handle.finished:
            if not self.loop.step():
                break

    def drain(self) -> None:
        """Run the loop dry (all in-flight jobs land)."""
        self.loop.run()
