"""The queued multi-server measurement tier (outbox-pattern dispatch).

The direct tier hands every job to its Measurement server the moment
the Coordinator assigns it.  That cannot absorb bursts: crowd-assisted
discovery delivers user-nominated URLs in waves far larger than the
fleet's instantaneous capacity.  This module puts a bounded,
work-stealing job queue between the Coordinator and the N Measurement
servers:

* **admission control** — the queue holds at most ``max_depth`` jobs;
  an arrival beyond that is *shed* with a typed
  :class:`repro.core.errors.QueueSaturated` carrying a deterministic
  ``retry_after`` (capped exponential in the shed streak) — the
  backpressure signal clients wait on before resubmitting.  A shed
  job's record is failed at the Coordinator so accounting never leaks.
* **outbox drain** — enqueued jobs are dispatched lazily, in global
  admission order (FIFO), when a caller polls for results.  Draining
  in admission order consumes every RNG stream exactly as the direct
  tier does, which is why queued dispatch stays row-identical to
  direct dispatch (property-tested on both storage backends).
* **work stealing** — at dispatch time a job whose owner is merely
  backlogged beyond ``steal_threshold`` fetch tasks is *transferred* to
  the least loaded server, budget-free (``Coordinator.transfer_job``).
  The owner is read from the job's Coordinator record at dispatch,
  never copied into the queue: a job the Coordinator failed over while
  it waited goes where its record says.
* **failover is the Coordinator's** — the tier decides no failover.
  An owner found offline at dispatch (a caller marked it offline
  through the distributor alone) is reported with
  ``Coordinator.handle_server_failure``, which moves the job within its
  retry budget or fails it.  A job whose record is failed leaves the
  outbox undispatched and collecting it raises
  :class:`repro.core.errors.PriceCheckFailed` — what every failed check
  raises; ``dead_lettered`` counts them.  The operator's list of
  failed jobs is ``Coordinator.failed_jobs()``.

The tier is the add-on's entry point when it runs: ``submit`` puts the
job's payload on its Coordinator
:class:`~repro.core.coordinator.JobRecord`, appends the record to the
outbox and returns it; dispatch takes the payload off the record and
hands it to the owning server's ``submit``, which places the same
record on the engine.  ``poll``/``result`` drain the outbox while the
record is still in it, then are the server's — clients cannot tell
queued dispatch from direct dispatch (except when told to back off).

Queue traffic is observable through ``sheriff_queue_*`` metrics
(depth, enqueued, dispatched, steals, shed, failed before dispatch,
wait-time histogram) and — with telemetry on — the *job journey*: every
lifecycle decision (``admission``, ``queue_wait``, ``steal``, ``shed``,
``dispatch``) is a span in the job's trace (keyed by the job id),
chained through the Coordinator's
:meth:`~repro.core.coordinator.Coordinator.journey_stage` under the
job's ``assign`` and ``retry`` spans.  The dispatch span parents the
owning server's ``price_check`` fan-out, so one trace reconstructs the
job end to end across servers; a steal span carries a *link* to the
journey stage it superseded.  All of it is RNG-free and clock-neutral:
telemetry on or off, the rows are identical (property-tested).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.coordinator import Coordinator, JobRecord
from repro.core.engine import PriceCheckEngine
from repro.core.errors import QueueSaturated, UnknownJob
from repro.net.faults import BackoffPolicy
from repro.obs import NULL_TELEMETRY, Span

__all__ = [
    "JobQueue",
    "QueuedMeasurementTier",
]


class JobQueue:
    """The bounded outbox: admitted jobs' records in global admission
    order, each holding its job's payload until dispatch.

    Depth accounting and stealing group jobs by owner, but the drain
    order is the *global* FIFO of admission — that is the order the
    direct tier would have executed them in, and therefore the order
    that preserves every RNG stream.
    """

    def __init__(self) -> None:
        self._records: Dict[str, JobRecord] = {}  # insertion = admission order
        self.enqueued_total = 0
        self.max_depth_seen = 0

    @property
    def depth(self) -> int:
        return len(self._records)

    def __contains__(self, record: JobRecord) -> bool:
        return record.job_id in self._records

    def depth_on(self, server_name: str) -> int:
        return sum(r.server_name == server_name for r in self._records.values())

    def offer(self, record: JobRecord, job: Any) -> None:
        """Append the record, holding its job's payload until dispatch."""
        record.job = job
        self._records[record.job_id] = record
        self.enqueued_total += 1
        self.max_depth_seen = max(self.max_depth_seen, self.depth)

    def head(self) -> Optional[JobRecord]:
        """The oldest admitted job still queued (global FIFO head)."""
        return next(iter(self._records.values()), None)

    def pop(self, record: JobRecord) -> Any:
        """Take the record out of the outbox; return the job payload it
        held, which it no longer does."""
        del self._records[record.job_id]
        job, record.job = record.job, None
        return job


class QueuedMeasurementTier:
    """N Measurement servers behind one bounded work-stealing queue.

    ``submit`` admits (or sheds) a Coordinator-admitted job and returns
    its record; ``poll``/``result`` first drain the whole outbox in
    admission order if the record is still in it, then are the owning
    server's.
    """

    def __init__(
        self,
        coordinator: Coordinator,
        server_lookup: Callable[[str], Any],
        engine: PriceCheckEngine,
        max_depth: int = 256,
        steal_threshold: int = 16,
        backoff: Optional[BackoffPolicy] = None,
        telemetry=NULL_TELEMETRY,
        transport_label: str = "sim",
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {max_depth}")
        self.coordinator = coordinator
        self._server_lookup = server_lookup
        #: stamped on every journey span (transport parity with mesh runs)
        self.transport_label = transport_label
        self.engine = engine
        self.max_depth = max_depth
        self.steal_threshold = steal_threshold
        #: retry_after schedule for shed jobs: deterministic (no RNG —
        #: the tier must stay restart-equivalent), capped exponential in
        #: the current shed streak
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.queue = JobQueue()
        #: queued jobs whose record the Coordinator failed; collecting
        #: them raises :class:`~repro.core.errors.PriceCheckFailed`
        self.dead_lettered = 0
        self._shed_streak = 0
        self.shed_total = 0
        self.dispatched_total = 0
        self.steals: Dict[str, int] = {}
        registry = telemetry.registry
        registry.sampled(
            "gauge", "sheriff_queue_depth",
            "Jobs waiting in the measurement tier's outbox, per server",
            ("server",),
            lambda: {
                (r.name,): self.queue.depth_on(r.name)
                for r in self.coordinator.distributor.servers()
            },
        )
        self._m_enqueued = registry.counter(
            "sheriff_queue_enqueued_total",
            "Jobs admitted to the queue", labelnames=("server",),
        )
        self._m_dispatched = registry.counter(
            "sheriff_queue_dispatched_total",
            "Jobs drained from the queue to a server",
            labelnames=("server",),
        )
        registry.sampled(
            "counter", "sheriff_queue_steals_total",
            "Queued jobs moved off their assigned server, by reason",
            ("reason",),
            lambda: {(reason,): n for reason, n in self.steals.items()},
        )
        registry.sampled(
            "counter", "sheriff_queue_shed_total",
            "Jobs refused at admission (queue saturated)", (),
            lambda: self.shed_total,
        )
        registry.sampled(
            "counter", "sheriff_queue_dlq_total",
            "Queued jobs failed before dispatch", (),
            lambda: self.dead_lettered,
        )
        self._m_wait = registry.histogram(
            "sheriff_queue_wait_seconds",
            "Time jobs spent queued before dispatch",
        )

    def _journey_span(
        self, name: str, record: JobRecord, **attrs: object
    ) -> Optional[Span]:
        """One journey stage of the job, stamped with the transport
        (``None`` with tracing off)."""
        attrs.setdefault("transport", self.transport_label)
        return self.coordinator.journey_stage(name, record, **attrs)

    # -- admission (submit) ----------------------------------------------
    @property
    def depth(self) -> int:
        return self.queue.depth

    def _record_of(self, job_id: str) -> JobRecord:
        record = self.coordinator.jobs.get(job_id)
        if record is None:
            raise UnknownJob(
                f"job {job_id!r} has no Coordinator ticket; the queue tier "
                "only accepts jobs admitted through Coordinator.new_request"
            )
        return record

    def submit(self, job: Any) -> JobRecord:
        """Admit one Coordinator-admitted job to the outbox, or shed it.

        Raises :class:`QueueSaturated` — with the accounting already
        cleaned up — when the queue is at ``max_depth``.  The exception's
        ``retry_after`` grows exponentially over a streak of consecutive
        sheds and resets on the first successful admission, so a
        persistently saturated tier pushes callers further and further
        back (backpressure) without consuming any randomness.
        """
        record = self._record_of(job.job_id)
        if self.queue.depth >= self.max_depth:
            self._shed_streak += 1
            retry_after = min(
                self.backoff.cap,
                self.backoff.base * self.backoff.factor ** (self._shed_streak - 1),
            )
            self.shed_total += 1
            self._journey_span(
                "shed", record, depth=self.queue.depth,
                retry_after=retry_after,
            )
            self.coordinator.fail_job(job.job_id, "shed: queue saturated")
            raise QueueSaturated(
                job.job_id, self.queue.depth, self.max_depth, retry_after
            )
        self._shed_streak = 0
        owner = record.server_name
        self.queue.offer(record, job)
        self._m_enqueued.inc(server=owner)
        self._journey_span(
            "admission", record, server=owner, depth=self.queue.depth,
        )
        return record

    # -- the outbox drain -------------------------------------------------
    def _backlog(self, name: str) -> int:
        """A server's load: engine fetch tasks in flight + queued jobs."""
        pool = self.engine.pool_for(name)
        return self.queue.depth_on(name) + pool.busy + pool.queued

    def _steal_target(self, owner: str) -> Optional[str]:
        """A strictly less loaded online server, if the imbalance pays.

        Deterministic: loads come from engine pool occupancy and queue
        depths (no RNG), ties break on server name.
        """
        online = [
            r for r in self.coordinator.distributor.servers() if r.online
        ]
        if len(online) < 2:
            return None
        best = min(online, key=lambda r: (self._backlog(r.name), r.name))
        if best.name == owner:
            return None
        if self._backlog(owner) - self._backlog(best.name) > self.steal_threshold:
            return best.name
        return None

    def _dispatch_head(self) -> bool:
        """Dispatch the FIFO head (stealing en route), or drop it if the
        Coordinator failed its record."""
        record = self.queue.head()
        if record is None:
            return False
        job_id = record.job_id
        distributor = self.coordinator.distributor
        if not record.failed and not distributor.server(record.server_name).online:
            # a caller marked the owner offline through the distributor
            # alone: report it, and the Coordinator moves or fails the job
            self.coordinator.handle_server_failure(record.server_name)
        if record.failed:
            # never dispatched: collecting it raises what a failed sent
            # check raises
            self.queue.pop(record)
            self.dead_lettered += 1
            return True
        owner = record.server_name
        # the outbox dwell, backdated to admission: a leaf beside the
        # path, recorded first so it precedes a steal and the dispatch in
        # journey order; a steal links back to it, the stage on the
        # owner it leaves
        wait = self._journey_span(
            "queue_wait", record, on_path=False, start=record.started_at,
            server=owner,
        )
        target = self._steal_target(owner)
        if target is not None:
            # load-balancing steal: owner healthy, budget untouched
            self.coordinator.transfer_job(job_id, target)
            self.steals["imbalance"] = self.steals.get("imbalance", 0) + 1
            self._journey_span(
                "steal", record,
                links=[(job_id, wait.span_id)] if wait is not None else None,
                reason="imbalance", src=owner, dst=target,
            )
            owner = target
        job = self.queue.pop(record)
        # the dispatch stage parents the server's price_check fan-out,
        # so one trace holds the job end to end across servers
        self._journey_span("dispatch", record, server=owner)
        self._server_lookup(owner).submit(job)
        self.dispatched_total += 1
        self._m_dispatched.inc(server=owner)
        self._m_wait.observe(self.coordinator.clock.now - record.started_at)
        return True

    def pump(self) -> int:
        """Drain the whole outbox in admission order; return the count.

        Draining everything (not just up to one job) is what lets the
        engine overlap a wave's fan-outs across every server's worker
        pool — the scale-out the benchmark measures.
        """
        dispatched = 0
        while self._dispatch_head():
            dispatched += 1
        return dispatched

    # -- poll / result ----------------------------------------------------
    def _server_for(self, record: JobRecord):
        """The server whose engine calls finish the job, draining the
        outbox first while the job is still in it."""
        if record in self.queue:
            self.pump()
        return self._server_lookup(record.server_name)

    def poll(self, record: JobRecord) -> Tuple[List[Any], bool]:
        """One progressive poll, draining the outbox first."""
        return self._server_for(record).poll(record)

    def result(self, record: JobRecord) -> Any:
        """Drive one job to its terminal state, draining the outbox first."""
        return self._server_for(record).result(record)

    # -- observability -----------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Operator snapshot of the tier (panel/benchmark input)."""
        return {
            "depth": self.queue.depth,
            "max_depth": self.max_depth,
            "max_depth_seen": self.queue.max_depth_seen,
            "enqueued": self.queue.enqueued_total,
            "dispatched": self.dispatched_total,
            "shed": self.shed_total,
            "steals": dict(self.steals),
            "dead_lettered": self.dead_lettered,
        }
