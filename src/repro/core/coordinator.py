"""The Coordinator (Sect. 3.1.1, 3.2, 3.4).

The Coordinator is the front door of the back-end.  For every price
check request it:

1. validates the target against the whitelist (and the PII URL
   blacklist), logging rejected requests for manual inspection;
2. mints a globally unique job ID and assigns the job to the online
   Measurement server with the fewest pending jobs (Fig. 6).  The job's
   :class:`JobRecord` is the price check itself — what the entry point
   that admits it returns, and the one record of which server holds it,
   where its lifecycle and journey are, and its rows until they are
   collected: a failover or a steal is one assignment to
   ``record.server_name``, and a server's load is the number of
   unresolved records that name it;
3. hands the selected Measurement server the list of PPCs residing in
   the initiator's location (step 1.1 of Fig. 1) — same city first,
   padded with same-country peers, never including the initiator.

It also runs three monitoring subsystems (Measurement servers, PPCs,
doppelganger clients), serves doppelganger client-side state against
256-bit bearer tokens (through an anonymity channel, so it cannot map
peers to doppelgangers), and hosts the doppelganger manager.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.dispatch import NoServerAvailable, RequestDistributor
from repro.core.errors import (
    AdmissionDenied,
    ConfigurationError,
    RequestRejected,
    RetryBudgetExhausted,
    RetryExhausted,
    UnknownJob,
)
from repro.core.whitelist import Whitelist
from repro.net.faults import ROLE_SERVER, BackoffPolicy, FaultPlan
from repro.net.geo import GeoDatabase, Location
from repro.net.p2p import PeerOverlay
from repro.obs import NULL_TELEMETRY, Span
from repro.profiles.doppelganger import DoppelgangerManager
from repro.web.internet import parse_url

__all__ = [
    "AdmissionDenied",
    "Coordinator",
    "JobRecord",
    "RequestRejected",
    "RetryBudgetExhausted",
    "RetryExhausted",
]


#: the lifecycle of a job, the one field ``JobRecord.state`` holds:
#: admitted and assigned (``pending``: not yet fanned out, or waiting in
#: the queue tier's outbox), fanned out with its rows stored
#: (``running``: only the completion report, due when the last fetch
#: lands, is outstanding), then ``completed`` or ``failed``
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"


@dataclass(slots=True)
class JobRecord:
    """One price check, from admission to collection.

    The Coordinator mints it in :meth:`Coordinator.new_request`; the
    entry point that admits the job (a Measurement server, or the queue
    tier) returns it from ``submit``, and ``poll``/``result`` take it.
    """

    job_id: str
    peer_id: str
    url: str
    domain: str
    server_name: str
    state: str = PENDING
    #: how many servers this job has been assigned to (1 = no failover)
    attempts: int = 1
    failure_reason: Optional[str] = None
    #: world-clock time the request was admitted (telemetry: the
    #: assign→complete turnaround and the queue wait measure from here)
    started_at: float = 0.0
    #: the job's latest journey span (assign, retry, a queue-tier stage,
    #: or the fan-out); the next stage chains under it.  ``None`` with
    #: tracing off and once the job is resolved.
    journey: Optional[Span] = None
    #: what the add-on sent (a ``PriceCheckJob``), held only while the
    #: job waits in the queue tier's outbox
    job: Any = None
    #: the fan-out's ``PriceCheckResult``, held from the fan-out until
    #: the job is collected
    result: Any = None
    #: rows whose fetch has landed on the timeline / rows already handed
    #: out by progressive polls
    rows_arrived: int = 0
    rows_delivered: int = 0
    #: 'request finish' (or the job's failure) was handed out: a further
    #: poll raises :class:`UnknownJob`
    closed: bool = False

    @property
    def completed(self) -> bool:
        return self.state == COMPLETED

    @property
    def failed(self) -> bool:
        return self.state == FAILED

    @property
    def resolved(self) -> bool:
        """Terminal: either completed or explicitly reported failed."""
        return self.state in (COMPLETED, FAILED)


class Coordinator:
    """Whitelisting, job dispatch, peer tracking, doppelganger serving."""

    def __init__(
        self,
        whitelist: Whitelist,
        distributor: RequestDistributor,
        overlay: PeerOverlay,
        geodb: GeoDatabase,
        clock,
        dopp_manager: Optional[DoppelgangerManager] = None,
        max_ppcs_per_request: int = 5,
        rng: Optional[random.Random] = None,
        faults: Optional[FaultPlan] = None,
        retry_budget: int = 3,
        backoff: Optional[BackoffPolicy] = None,
        telemetry=NULL_TELEMETRY,
        transport_label: str = "sim",
    ) -> None:
        self.whitelist = whitelist
        #: which messaging backend the deployment runs over ("sim" or
        #: "socket"); stamped on journey spans so a trace reads the
        #: same in sim and mesh runs
        self.transport_label = transport_label
        self.distributor = distributor
        self.overlay = overlay
        self.geodb = geodb
        self.clock = clock
        self.dopp_manager = dopp_manager
        self.max_ppcs_per_request = max_ppcs_per_request
        self._rng = rng if rng is not None else random.Random(1099)
        #: dedicated jitter stream for retry backoff.  Backoff draws must
        #: not share the PPC-selection RNG: a failover would then shift
        #: every later select_ppcs() shuffle, and a healed chaos run
        #: could never be row-identical to a fault-free one (the
        #: restart-equivalence property tests/ops pins down).
        self._backoff_rng = random.Random(2029)
        self._job_seq = itertools.count(1)
        #: every record ever admitted, by job id
        self.jobs: Dict[str, JobRecord] = {}
        #: the unresolved records, in admission order: a server's load
        #: and the jobs a failover moves are read from here
        self._pending: Dict[str, JobRecord] = {}
        #: chaos schedule; None means a clean network
        self.faults = faults
        #: how many server assignments one job may consume in total
        self.retry_budget = retry_budget
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.failovers = 0
        self.jobs_failed = 0
        self.jobs_reassigned = 0
        #: queued jobs the queue tier moved to a less loaded server
        self.jobs_stolen = 0
        #: total simulated seconds callers were told to back off
        self.backoff_seconds = 0.0
        #: journey spans root here (the tracer is the deployment's once
        #: its clock is bound)
        self.tracer = telemetry.tracer
        #: network identities seen on doppelganger state requests — with
        #: the anonymity channel in place these are exit-relay names,
        #: never peers
        self.state_request_sources: List[str] = []
        #: telemetry: the job lifecycle counter, the recovery counters
        #: and per-server pending jobs, read from the fields above, and
        #: the per-server turnaround histogram (admission → completion
        #: report, world clock)
        registry = telemetry.registry
        self._m_lifecycle = registry.counter(
            "sheriff_dispatch_jobs_total",
            "Job lifecycle events seen by the distributor",
            labelnames=("event",),
        )
        registry.sampled(
            "gauge", "sheriff_server_pending_jobs",
            "Pending jobs per Measurement server (Fig. 7)",
            ("server", "url", "port"),
            self._pending_gauge,
        )
        registry.sampled(
            "counter", "sheriff_coordinator_recovery_total",
            "Failover / reassignment / terminal-failure events", ("event",),
            lambda: {
                ("failover",): self.failovers,
                ("reassigned",): self.jobs_reassigned,
                ("job_failed",): self.jobs_failed,
                ("stolen",): self.jobs_stolen,
            },
        )
        registry.sampled(
            "counter", "sheriff_requests_rejected_total",
            "Price-check requests refused at admission", (),
            lambda: len(self.whitelist.rejected),
        )
        registry.sampled(
            "counter", "sheriff_backoff_seconds_total",
            "Simulated seconds callers were told to back off", (),
            lambda: self.backoff_seconds,
        )
        registry.sampled(
            "counter", "sheriff_retry_budget_spent_total",
            "Server assignments consumed beyond each job's first", (),
            lambda: self.jobs_reassigned,
        )
        self._m_turnaround = registry.histogram(
            "sheriff_job_turnaround_seconds",
            "Admission-to-completion-report time per server (world clock)",
            labelnames=("server",),
        )

    # -- PPC tracking ----------------------------------------------------------
    def select_ppcs(self, initiator_peer_id: str, location: Location) -> List[str]:
        """PPC IDs in the initiator's location (step 1.1 of Fig. 1).

        Same-city peers take priority; within each tier the choice is
        randomized so that repeated checks spread over the peer pool
        (Sect. 7.1: repetitions are timed "to maximize the number of
        different PPCs used").
        """
        same_city = [
            p.peer_id
            for p in self.overlay.peers_in_city(location.country, location.city)
            if p.peer_id != initiator_peer_id
        ]
        same_country = [
            p.peer_id
            for p in self.overlay.peers_in_country(location.country)
            if p.peer_id != initiator_peer_id and p.peer_id not in same_city
        ]
        self._rng.shuffle(same_city)
        self._rng.shuffle(same_country)
        return (same_city + same_country)[: self.max_ppcs_per_request]

    # -- the request protocol (Fig. 6) ------------------------------------------
    def new_request(
        self, peer_id: str, url: str, location: Location
    ) -> Tuple[JobRecord, List[str]]:
        """Steps 1–2 of the distribution protocol.

        Raises :class:`RequestRejected` for non-whitelisted domains or
        PII-blacklisted URLs.  Returns the job's record plus the PPC
        list that is forwarded to the selected Measurement server.
        """
        self.chaos_tick()
        domain, path = parse_url(url)
        allowed, reason = self.whitelist.check(url, domain, path, self.clock.now)
        if not allowed:
            raise RequestRejected(url, reason)
        job_id = f"job-{next(self._job_seq)}"
        server = self.distributor.select_server(self.load())
        record = self.jobs[job_id] = self._pending[job_id] = JobRecord(
            job_id=job_id, peer_id=peer_id, url=url, domain=domain,
            server_name=server.name, started_at=self.clock.now,
        )
        self._m_lifecycle.inc(event="assigned")
        # the journey's root: every later stage (queue admission,
        # steal, dispatch, the fan-out) chains under this span
        self.journey_stage(
            "assign", record, server=server.name, url=url,
            transport=self.transport_label,
        )
        ppcs = self.select_ppcs(peer_id, location)
        return record, ppcs

    def _record(self, job_id: str) -> JobRecord:
        record = self.jobs.get(job_id)
        if record is None:
            raise UnknownJob(f"unknown job {job_id!r}")
        return record

    def jobs_on(self, server_name: str) -> List[str]:
        """IDs of the jobs pending on one server, in admission order."""
        return [
            r.job_id for r in self._pending.values()
            if r.server_name == server_name
        ]

    def load(self) -> Dict[str, int]:
        """``{server: pending jobs}`` — what ``least_jobs`` balances and
        the Fig. 7 panel shows.  A server with no pending job is absent."""
        return Counter(r.server_name for r in self._pending.values())

    def _pending_gauge(self) -> Dict[Tuple[str, str, int], int]:
        load = self.load()
        return {
            (s.name, s.url, s.port): load.get(s.name, 0)
            for s in self.distributor.servers()
        }

    def journey_stage(
        self, name: str, record: JobRecord, on_path: bool = True,
        **attrs: object,
    ) -> Optional[Span]:
        """Record one stage of the job's journey, chained under the
        job's latest stage (``record.journey``), and return it.

        Stages happen outside any ``with`` nesting (assignment and retry
        here, admission, queue wait and steal in the queue tier), so each
        names its parent explicitly; the chain makes ``render_trace``
        show the job's life as one descending path, each stage covering
        the stages after it.  A stage that ends before the next one
        starts (the outbox dwell) passes ``on_path=False``: it hangs
        beside the path as a leaf instead of becoming the latest stage.
        ``links=`` and ``start=`` pass through to :meth:`Tracer.record`.
        With tracing off it records nothing and returns ``None``.
        """
        if not self.tracer.enabled:
            return None
        latest = record.journey
        span = self.tracer.record(
            name, trace_id=record.job_id,
            parent_id=latest.span_id if latest is not None else None,
            **attrs,
        )
        if on_path:
            record.journey = span
        return span

    def _resolve(self, record: JobRecord, event: str) -> None:
        """Step 4 of Fig. 6: the job ended (``completed`` or
        ``failed``), so its server has one job fewer pending."""
        del self._pending[record.job_id]
        record.journey = None
        self._m_lifecycle.inc(event=event)

    def job_completed(self, job_id: str) -> None:
        """Step 4: the Measurement server reports completion.

        Late completions — a server that finished a job the Coordinator
        already failed over or reported failed — are ignored rather than
        double-counted (App. 10.3's lost-message reconciliation).
        """
        record = self._record(job_id)
        if record.resolved:
            return
        record.state = COMPLETED
        self._resolve(record, "completed")
        self._m_turnaround.observe(
            self.clock.now - record.started_at, server=record.server_name
        )

    # -- failover (heartbeat expiry + dead-server reassignment) -----------------
    def chaos_tick(self) -> List[str]:
        """One heartbeat/expiry sweep at the current simulated time.

        Live servers heartbeat implicitly; servers inside a fault-plan
        flap window miss theirs.  Whoever exceeds the heartbeat timeout
        is marked offline ("absence of heartbeat messages … results in
        the Measurement server being marked as offline") and its pending
        jobs are reassigned to the survivors.  Returns the names of the
        servers that expired this tick.

        Without a fault plan this is a no-op: on a clean network every
        heartbeat arrives and nothing ever expires.
        """
        if self.faults is None:
            return []
        now = self.clock.now
        for record in self.distributor.servers():
            flapped = (
                self.faults is not None
                and self.faults.host_down(record.name, now, role=ROLE_SERVER)
            )
            if not flapped:
                self.distributor.heartbeat(record.name, now)
        expired = self.distributor.expire_stale(now)
        for name in expired:
            self._requeue_jobs_of(name)
        return expired

    def _requeue_jobs_of(self, server_name: str) -> None:
        """Move each job pending on ``server_name`` to a survivor within
        its retry budget, or fail it.

        The one place a failover is decided: callers read the outcome
        from the job's record (``server_name``, or ``failed`` with its
        ``failure_reason``).  Jobs move in admission order.  A running
        job stays: its rows are stored, and its completion is reported
        when its last fetch lands.
        """
        for job_id in self.jobs_on(server_name):
            record = self.jobs[job_id]
            if record.state == RUNNING:
                continue
            try:
                if record.attempts >= self.retry_budget:
                    raise RetryBudgetExhausted(job_id, record.attempts)
                # the dead server is offline by now, so it is never picked
                server = self.distributor.select_server(self.load())
            except (RetryExhausted, NoServerAvailable) as exc:
                self.fail_job(job_id, str(exc))
                continue
            record.attempts += 1
            record.server_name = server.name
            self.jobs_reassigned += 1
            self._m_lifecycle.inc(event="reassigned")
            self.journey_stage(
                "retry", record, attempt=record.attempts, server=server.name,
            )

    def handle_server_failure(self, server_name: str) -> None:
        """A send to this server failed: mark it offline immediately and
        move each of its pending jobs to a survivor, or fail the jobs
        whose retry budget is spent or that find no online server
        (dead-server failover).

        The add-on and the queue tier call this and then read each job's
        outcome from its :class:`JobRecord`; the caller backs off
        (capped exponential, jittered — :meth:`next_backoff`) before it
        re-sends.
        """
        self.failovers += 1
        try:
            self.distributor.mark_offline(server_name)
        except KeyError:
            return
        self._requeue_jobs_of(server_name)

    def transfer_job(self, job_id: str, server_name: str) -> None:
        """Work stealing: move a queued job onto a less loaded server.

        Free of retry-budget charges — the old owner is healthy, merely
        backlogged — and counted as a ``stolen`` recovery event so the
        queue tier's rebalancing is visible in telemetry.
        """
        record = self._record(job_id)
        if record.resolved:
            raise UnknownJob(f"job {job_id!r} is already resolved")
        server = self.distributor.server(server_name)
        if not server.online:
            raise NoServerAvailable(f"steal target {server_name!r} is offline")
        if server.name != record.server_name:
            record.server_name = server.name
            self._m_lifecycle.inc(event="stolen")
        self.jobs_stolen += 1

    def next_backoff(self, attempt: int) -> float:
        """Jittered, capped-exponential wait before retry ``attempt``."""
        delay = self.backoff.delay(attempt, self._backoff_rng)
        self.backoff_seconds += delay
        return delay

    def fail_job(self, job_id: str, reason: str) -> None:
        """Terminal failure: report the job failed, exactly once."""
        record = self._record(job_id)
        if record.resolved:
            return
        record.state = FAILED
        record.failure_reason = reason
        self._resolve(record, "failed")
        self.jobs_failed += 1

    def failed_jobs(self) -> List[JobRecord]:
        """The operator's list of failed jobs, each with its
        ``failure_reason``."""
        return [j for j in self.jobs.values() if j.failed]

    # -- doppelganger state service (steps 3.3/3.4 of Fig. 1) -------------------
    def doppelganger_client_state(self, token: str) -> Dict[str, Dict[str, str]]:
        """Bearer-token state request, arriving via an anonymity network.

        The Coordinator grants the client-side state "only to those who
        submit the correct token" — it never learns which peer asked.
        """
        if self.dopp_manager is None:
            raise ConfigurationError("no doppelganger manager configured")
        return self.dopp_manager.client_state_for(token)

    def handle_anonymous_state_request(self, request) -> Dict[str, Dict[str, str]]:
        """Serve a state request delivered over the anonymity network.

        ``request`` is an :class:`repro.net.anonymity.AnonymousRequest`;
        the payload carries only the bearer token.  The source identity
        available to the Coordinator is the exit relay.
        """
        self.state_request_sources.append(request.exit_relay)
        token = request.payload.decode("utf-8")
        return self.doppelganger_client_state(token)

    def record_doppelganger_serve(self, token: str, domain: str) -> Optional[str]:
        """Account one doppelganger use; returns the fresh token if the
        budget triggered a regeneration, else None."""
        if self.dopp_manager is None:
            raise ConfigurationError("no doppelganger manager configured")
        dopp = self.dopp_manager.get(token)
        cluster = dopp.cluster_index
        self.dopp_manager.record_serve(token, domain)
        fresh = self.dopp_manager.id_for_cluster(cluster)
        return fresh if fresh != token else None

    def update_doppelganger_state(
        self, token: str, client_state: Dict[str, Dict[str, str]]
    ) -> None:
        """Persist the client-side state a PPC accumulated for a dopp."""
        if self.dopp_manager is None:
            raise ConfigurationError("no doppelganger manager configured")
        try:
            self.dopp_manager.get(token).client_state = client_state
        except KeyError:
            pass  # the doppelganger was regenerated meanwhile

    # -- monitoring --------------------------------------------------------------
    def pending_jobs(self) -> int:
        return len(self._pending)
