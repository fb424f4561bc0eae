"""The pipelined price-check engine.

The paper's deployment fans each check out to ~30 IPCs plus PPCs "at
the same time" (Sect. 3.2), and Table 1 shows the architecture is sized
by how many such fan-outs it can keep in flight.  This module is the
concurrency model on top of the Measurement server's fan-out:

* every fetch a job performs becomes a task on a bounded per-server
  :class:`WorkerPool`, placed when the job is submitted: the pool
  knows when each worker frees, so it knows at once when each task is
  taken and when it lands.  The fan-out itself runs at the job's
  dispatch instant, which is the "same time" of Sect. 3.2; the job is
  then one event on the world's :class:`repro.net.events.EventLoop` —
  the one clock every component reads — at its last landing, where it
  is reported complete to the Coordinator;
* a price check is the Coordinator's
  :class:`~repro.core.coordinator.JobRecord`: the entry point that
  admits the job (a Measurement server, or the queue tier) returns it,
  and :meth:`PriceCheckEngine.submit` places its fetches on the
  timeline.  ``result`` runs the world clock to the job's last landing,
  hands out the record's result and drops it;
* a short-TTL :class:`PageCache` keyed by ``(url, vantage,
  client-state)`` lets simultaneous checks of the same product reuse a
  just-fetched page instead of re-fetching it — and, since everything
  the $heriff derives from a page is a function of its bytes, reuse
  what the first check derived from it too: each :class:`CachedPage`
  carries the name of the page's stored diff, the result rows read
  from it and its tag cut, and they expire with it.  Entries are
  evicted oldest first as new pages are put, so the cache holds one
  TTL window of pages.

Determinism: the engine never decides *what* is fetched or in which
order — the Measurement server performs the fan-out eagerly in the
canonical serial order, so every RNG stream (world, faults, latency) is
consumed identically however many workers the pools have.  The engine
only decides *when* each fetch lands on the simulated timeline, and it
decides that in closed form, in submission order: a task is taken at
``max(now, the earliest instant a worker frees)`` and lands its
duration later, the schedule of a FIFO pool whose tasks are loop events
(``tests/core/test_closed_form_pool.py`` holds the two to the same
instants).  A job's ``fetch`` spans are recorded in landing order, ties
in task order, when its last fetch lands.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from heapq import heapreplace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.errors import PriceCheckFailed, UnknownJob
from repro.core.pricecheck import PriceCheckResult
from repro.net.events import EventLoop
from repro.obs import NULL_TELEMETRY

if TYPE_CHECKING:  # the engine runs records; it needs no Coordinator
    from repro.core.coordinator import JobRecord

__all__ = [
    "CachedPage",
    "FetchTask",
    "PageCache",
    "PriceCheckEngine",
    "WorkerPool",
]

#: one fetch a job attempted: (simulated duration, produced a row,
#: vantage kind, proxy id, page-cache hit — ``None`` unless an IPC page
#: arrived).  The last three only label the fetch's span.
FetchTask = Tuple[float, bool, str, str, Optional[bool]]

#: simulated cost of serving a page out of the cache (a local lookup,
#: no network round trip)
CACHE_HIT_SECONDS = 0.005


class WorkerPool:
    """A bounded pool of fetch workers, placed in closed form.

    A FIFO queue waits in front of ``size`` workers.  :meth:`place`
    gives the next task the worker that frees earliest: the task is
    taken at ``max(now, earliest free instant)`` and lands ``duration``
    later.  That is the schedule an event-driven pool produces (the one
    in ``tests/oracles/event_pool.py``: a task is taken when a running
    one lands), computed when the task is submitted, so a task costs a
    heap replace and no loop event.

    The jobs whose fetches are in flight are held (:meth:`hold`) until
    their last one lands (:meth:`release`); ``busy`` and ``queued`` are
    read from their instants.  Ties at one instant are ordered as the
    event-driven pool orders them while the loop runs its events in
    time order: a task that lands at the instant the clock moved on to
    has landed, and one taken and landed at the instant its job was
    placed (a zero-second task) still occupies its worker until the
    clock moves on.  A caller that moves the clock past a landing
    without running the loop sees the task landed here, where the
    event-driven pool still counted it busy.
    """

    def __init__(self, loop: EventLoop, size: int, name: str) -> None:
        if size < 1:
            raise ValueError(f"worker pool needs at least 1 worker, got {size}")
        self.loop = loop
        self.size = size
        #: the instant each worker frees, a heap
        self._free: List[float] = [float("-inf")] * size
        #: job id -> (instant placed, task takens in placement order,
        #: task landings sorted)
        self._in_flight: Dict[str, Tuple[float, List[float], List[float]]] = {}
        #: the most tasks occupying workers at one instant
        self.peak_busy = 0
        self.tasks_run = 0
        #: the Measurement server the pool works for
        self.name = name

    def place(self, duration: float) -> Tuple[float, float]:
        """Give one task the earliest-free worker; return ``(taken,
        landing)``."""
        free = self._free
        now = self.loop.clock.now
        earliest = free[0]
        taken = earliest if earliest > now else now
        landing = taken + duration
        heapreplace(free, landing)
        self.tasks_run += 1
        return taken, landing

    def hold(self, job_id: str, placed: List[Tuple[float, float]]) -> None:
        """Count a job's placed tasks in flight until :meth:`release`."""
        self._in_flight[job_id] = (
            self.loop.clock.now,
            [taken for taken, _ in placed],
            sorted([landing for _, landing in placed]),
        )
        self.peak_busy = max(self.peak_busy, self.busy)

    def release(self, job_id: str) -> None:
        """The job's last task landed."""
        del self._in_flight[job_id]

    def _load(self) -> Tuple[int, int]:
        """``(busy, queued)`` at the clock's instant."""
        now = self.loop.clock.now
        unlanded = untaken = 0
        for placed_at, takens, landings in self._in_flight.values():
            landed = (bisect_left if now == placed_at else bisect_right)(landings, now)
            unlanded += len(landings) - landed
            untaken += len(takens) - bisect_right(takens, now)
        # a zero-second task frees its worker at the instant it was
        # placed, and the next task takes the worker at once here; the
        # event-driven pool queued that task until the first one's
        # event ran, with every worker busy
        busy = min(self.size, unlanded - untaken)
        return busy, unlanded - busy

    @property
    def busy(self) -> int:
        return self._load()[0]

    @property
    def queued(self) -> int:
        return self._load()[1]


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
    * ``cut`` — the page's :func:`~repro.web.html.split_tags` cut, as
      the first reader made it; a later reader whose row key misses
      extracts from it instead of cutting the page again.  ``None``
      until a row was read.
    """

    __slots__ = ("stored_at", "fetch", "stored_as", "rows", "cut")

    def __init__(self, stored_at: float, fetch: Any) -> None:
        self.stored_at = stored_at
        self.fetch = fetch
        self.stored_as: Optional[Tuple[Any, Tuple[str, str]]] = None
        self.rows: Dict[Tuple[Tuple[str, ...], str, str, float], Any] = {}
        self.cut: Optional[Tuple[List[str], str]] = None


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
        self.tracer = telemetry.tracer
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

    # -- the job lifecycle (submit → result) ------------------------------
    def submit(
        self,
        record: JobRecord,
        tasks: List[FetchTask],
        on_done: Optional[Callable[[], None]] = None,
    ) -> JobRecord:
        """Place one executed fan-out's fetches on the server's pool.

        ``tasks`` carries one :data:`FetchTask` per fetch the job
        attempted, in canonical order (the initiator's own page is first
        and costs nothing — it arrived with the request; a failed fetch
        occupies a worker for its timeout but lands no row).  Every
        task is placed now, and one loop event at the last landing —
        row or not — completes the job and runs ``on_done`` (the
        completion report).
        With tracing on, that event records each task as a ``fetch``
        span under the job's fan-out span, in landing order, from the
        instant a worker took it to its landing.  A fan-out that failed
        (its record is failed) is terminal already: no worker time is
        spent on it.
        """
        if record.failed:
            return record
        server = record.server_name
        self._m_submitted.inc(server=server)
        pool = self.pool_for(server)
        place = pool.place
        placed = [place(task[0]) for task in tasks]
        pool.hold(record.job_id, placed)
        submitted = self.now
        root = record.journey  # the fan-out's span; None with tracing off

        def complete() -> None:
            pool.release(record.job_id)
            if root is not None:
                self._record_fetches(record.job_id, root.span_id, tasks, placed)
            self._m_completed.inc(server=server, state="done")
            self._m_latency.observe(self.now - submitted, server=server)
            if on_done is not None:
                on_done()

        self.loop.call_at(max([landing for _, landing in placed]), complete)
        return record

    def _record_fetches(
        self,
        trace_id: str,
        parent_id: int,
        tasks: List[FetchTask],
        placed: List[Tuple[float, float]],
    ) -> None:
        """One ``fetch`` span per task, in landing order (ties in task
        order, as a worker took them)."""
        record = self.tracer.record
        for i in sorted(range(len(tasks)), key=lambda i: placed[i][1]):
            _, ok, vantage, proxy_id, cache_hit = tasks[i]
            taken, landing = placed[i]
            attrs = {} if cache_hit is None else {"cache_hit": cache_hit}
            record(
                "fetch", trace_id=trace_id, parent_id=parent_id,
                start=taken, end=landing, vantage=vantage, proxy_id=proxy_id,
                ok=ok, **attrs,
            )

    def result(self, record: JobRecord) -> PriceCheckResult:
        """Drive the job to its terminal state; return (or raise) it.

        Either way the record is closed, and it no longer holds the
        result.
        """
        if record.closed:
            raise UnknownJob(f"unknown or finished job {record.job_id!r}")
        record.closed = True
        self.drive(record)
        if record.failed:
            raise PriceCheckFailed(record.job_id, record.failure_reason)
        result, record.result = record.result, None
        return result

    def drive(self, record: JobRecord) -> None:
        """Advance simulated time until the job is terminal."""
        while not record.resolved:
            if not self.loop.step():
                break

    def drain(self) -> None:
        """Run the loop dry (all in-flight jobs land)."""
        self.loop.run()
