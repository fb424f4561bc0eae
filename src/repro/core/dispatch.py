"""The price check request distribution protocol (Sect. 3.4, App. 10.3).

The Coordinator tracks every Measurement server in the *Measurement
server list* — URL, port, online status, pending-job counter, and a
heartbeat timestamp — and assigns each new request to the online server
with the fewest pending jobs.  That beats round robin under
heterogeneous servers, the argument the paper makes via the job-shop
problem; ``policy="round_robin"`` is retained for the ablation
benchmark.

"Absence of heartbeat messages for a specified time threshold results in
the Measurement server being marked as offline."  When that happens the
jobs pending on the dead server are *reassigned* to the survivors (and
on exhaustion reported failed) rather than silently lost — the
corrective measures of App. 10.3 made continuous instead of manual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.errors import (
    DispatchConfigError,
    DuplicateServer,
    NoServerAvailable,
    ServerBusy,
    UnknownJob,
    UnknownServer,
)
from repro.obs import NULL_TELEMETRY

__all__ = [
    "DISPATCH_POLICIES",
    "NoServerAvailable",
    "RequestDistributor",
    "ServerRecord",
]

#: how the Coordinator picks a server for a new request
DISPATCH_POLICIES = ("least_jobs", "round_robin")


@dataclass
class ServerRecord:
    """One row of the Measurement server list (bottom of Fig. 6).

    ``timestamp`` is the last heartbeat, or ``None`` before the first
    one arrives; ``registered_at`` anchors the staleness clock until
    then, so a freshly registered server is never instantly expired.
    """

    name: str
    url: str
    port: int
    online: bool = True
    jobs: int = 0
    timestamp: Optional[float] = None
    registered_at: float = 0.0
    #: which Transport backend serves this endpoint ("sim" or
    #: "socket") — the server list is transport-aware so a mesh panel
    #: can tell real processes from simulated hosts at a glance
    transport: str = "sim"

    @property
    def last_seen(self) -> float:
        """The time the server last proved it was alive."""
        return self.timestamp if self.timestamp is not None else self.registered_at

    def panel_row(self) -> Dict[str, object]:
        """One row of the Fig. 7 monitoring panel."""
        return {
            "Worker": self.url,
            "Port": self.port,
            "Status": "online" if self.online else "offline",
            "Jobs": self.jobs,
            "Transport": self.transport,
        }


class RequestDistributor:
    """Coordinator-side server registry and job assignment."""

    def __init__(
        self,
        policy: str = "least_jobs",
        heartbeat_timeout: float = 30.0,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        if policy not in DISPATCH_POLICIES:
            raise DispatchConfigError(f"unknown dispatch policy {policy!r}")
        self.policy = policy
        self.heartbeat_timeout = heartbeat_timeout
        self._servers: Dict[str, ServerRecord] = {}
        self._rr = itertools.count()
        self._job_server: Dict[str, str] = {}
        self.assignments = 0
        self.completions = 0
        self.failures = 0
        self.reassignments = 0
        self.offline_events = 0
        #: telemetry: lifecycle counters plus the per-server gauges the
        #: Fig. 7 panel renders from
        registry = telemetry.registry
        self._m_lifecycle = registry.counter(
            "sheriff_dispatch_jobs_total",
            "Job lifecycle events seen by the distributor",
            labelnames=("event",),
        )
        self._m_offline = registry.counter(
            "sheriff_dispatch_offline_events_total",
            "Servers marked offline (missed heartbeats or dead sends)",
        )
        self._m_jobs = registry.gauge(
            "sheriff_server_pending_jobs",
            "Pending jobs per Measurement server (Fig. 7)",
            labelnames=("server", "url", "port"),
        )
        self._m_online = registry.gauge(
            "sheriff_server_online",
            "1 = server online, 0 = offline (Fig. 7)",
            labelnames=("server", "url", "port"),
        )

    def _sync_gauges(self, record: ServerRecord) -> None:
        labels = dict(server=record.name, url=record.url, port=record.port)
        self._m_jobs.set(record.jobs, **labels)
        self._m_online.set(1 if record.online else 0, **labels)

    # -- registry ------------------------------------------------------------
    def register_server(
        self, name: str, url: str, port: int = 80, now: float = 0.0,
        transport: str = "sim",
    ) -> ServerRecord:
        if name in self._servers:
            raise DuplicateServer(f"server {name!r} already registered")
        record = ServerRecord(
            name=name, url=url, port=port, registered_at=now,
            transport=transport,
        )
        self._servers[name] = record
        self._sync_gauges(record)
        return record

    def remove_server(self, name: str) -> None:
        record = self._servers.get(name)
        if record is not None and record.jobs > 0:
            raise ServerBusy(
                f"server {name!r} still has {record.jobs} pending jobs"
            )
        self._servers.pop(name, None)
        if record is not None:
            labels = dict(server=record.name, url=record.url, port=record.port)
            self._m_jobs.remove(**labels)
            self._m_online.remove(**labels)

    def server(self, name: str) -> ServerRecord:
        try:
            return self._servers[name]
        except KeyError:
            raise UnknownServer(f"unknown server {name!r}") from None

    def servers(self) -> List[ServerRecord]:
        return list(self._servers.values())

    # -- heartbeats -------------------------------------------------------------
    def heartbeat(self, name: str, now: float) -> None:
        record = self.server(name)
        record.timestamp = now
        record.online = True
        self._sync_gauges(record)

    def expire_stale(self, now: float) -> List[str]:
        """Mark servers offline whose heartbeat is older than the timeout.

        A server that has not heartbeated *yet* is measured from its
        registration time, so registration alone buys one full timeout
        window (regression: a fresh server with the old ``0.0`` default
        was instantly stale).
        """
        expired = []
        for record in self._servers.values():
            if record.online and now - record.last_seen > self.heartbeat_timeout:
                record.online = False
                self.offline_events += 1
                self._m_offline.inc()
                self._sync_gauges(record)
                expired.append(record.name)
        return expired

    def mark_offline(self, name: str) -> List[str]:
        """Declare a server dead (e.g. a send failed); return its jobs."""
        record = self.server(name)
        if record.online:
            record.online = False
            self.offline_events += 1
            self._m_offline.inc()
            self._sync_gauges(record)
        return self.jobs_on(name)

    # -- assignment ---------------------------------------------------------------
    def _online(self) -> List[ServerRecord]:
        return [s for s in self._servers.values() if s.online]

    def select_server(
        self, exclude: Sequence[str] = ()
    ) -> ServerRecord:
        online = [s for s in self._online() if s.name not in exclude]
        if not online:
            raise NoServerAvailable("no online Measurement server")
        if self.policy == "round_robin":
            return online[next(self._rr) % len(online)]
        return min(online, key=lambda s: s.jobs)

    def assign_job(self, job_id: str) -> ServerRecord:
        """Pick a server for a new job and bump its pending counter."""
        record = self.select_server()
        record.jobs += 1
        self._job_server[job_id] = record.name
        self.assignments += 1
        self._m_lifecycle.inc(event="assigned")
        self._sync_gauges(record)
        return record

    def reassign_job(
        self, job_id: str, exclude: Sequence[str] = ()
    ) -> ServerRecord:
        """Move a pending job off its (dead) server onto a survivor.

        Keeps the assignment counter untouched — the job was already
        counted once — so the conservation invariant becomes
        ``assignments == completions + failures + pending``.
        """
        old_name = self._job_server.get(job_id)
        if old_name is None:
            raise UnknownJob(f"unknown job {job_id!r}")
        exclude = list(exclude)
        if old_name not in exclude:
            exclude.append(old_name)
        record = self.select_server(exclude=exclude)
        old = self._servers.get(old_name)
        if old is not None and old.jobs > 0:
            old.jobs -= 1
            self._sync_gauges(old)
        record.jobs += 1
        self._job_server[job_id] = record.name
        self.reassignments += 1
        self._m_lifecycle.inc(event="reassigned")
        self._sync_gauges(record)
        return record

    def transfer_job(self, job_id: str, to_name: str) -> ServerRecord:
        """Work stealing: move a *queued* job to a less loaded server.

        Unlike :meth:`reassign_job` this is not a failure response — the
        old owner is healthy, just busier — so it consumes no retry
        budget, picks no server itself (the queue tier already chose the
        steal target), and is counted as a steal, not a reassignment.
        """
        old_name = self._job_server.get(job_id)
        if old_name is None:
            raise UnknownJob(f"unknown job {job_id!r}")
        record = self.server(to_name)
        if not record.online:
            raise NoServerAvailable(f"steal target {to_name!r} is offline")
        if record.name == old_name:
            return record
        old = self._servers.get(old_name)
        if old is not None and old.jobs > 0:
            old.jobs -= 1
            self._sync_gauges(old)
        record.jobs += 1
        self._job_server[job_id] = record.name
        self._m_lifecycle.inc(event="stolen")
        self._sync_gauges(record)
        return record

    def jobs_on(self, name: str) -> List[str]:
        """Job IDs currently pending on one server."""
        return [j for j, s in self._job_server.items() if s == name]

    def _release(self, job_id: str) -> None:
        name = self._job_server.pop(job_id, None)
        if name is None:
            raise UnknownJob(f"unknown job {job_id!r}")
        record = self._servers.get(name)
        if record is not None and record.jobs > 0:
            record.jobs -= 1
            self._sync_gauges(record)

    def complete_job(self, job_id: str) -> None:
        """Step 4 of Fig. 6: the server reports the job finished."""
        self._release(job_id)
        self.completions += 1
        self._m_lifecycle.inc(event="completed")

    def fail_job(self, job_id: str) -> None:
        """Release a job that is being reported failed (retry budget
        exhausted / quorum not met) — counted separately so failures are
        explicit, never silent."""
        self._release(job_id)
        self.failures += 1
        self._m_lifecycle.inc(event="failed")

    def reconcile_lost_job(self, job_id: str) -> None:
        """Corrective measure for completion messages lost to the network
        (App. 10.3): drop the job without a completion report."""
        self.complete_job(job_id)

    @property
    def pending_jobs(self) -> int:
        return sum(s.jobs for s in self._servers.values())

    def monitoring_rows(self) -> List[Dict[str, object]]:
        """The Fig. 7 panel: every server with status and pending jobs."""
        return [s.panel_row() for s in self._servers.values()]
