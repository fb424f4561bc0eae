"""The price check request distribution protocol (Sect. 3.4, App. 10.3).

The Coordinator tracks every Measurement server in the *Measurement
server list* — URL, port, online status and a heartbeat timestamp — and
assigns each new request to the online server with the fewest pending
jobs.  That beats round robin under heterogeneous servers, the argument
the paper makes via the job-shop problem.  Ties among the least-loaded
servers rotate from the last pick, so an idle fleet is served in turn
and a loaded one by load — one policy, with no knob.

"Absence of heartbeat messages for a specified time threshold results in
the Measurement server being marked as offline."  When that happens the
Coordinator *reassigns* the jobs pending on the dead server to the
survivors (and on exhaustion reports them failed) rather than silently
losing them — the corrective measures of App. 10.3 made continuous
instead of manual.

The list knows servers, not jobs.  Which server holds a job is recorded
once, in the Coordinator's ``JobRecord.server_name``, and a server's
load is read from those records (``Coordinator.load()``) and passed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.errors import DuplicateServer, NoServerAvailable, UnknownServer
from repro.obs import NULL_TELEMETRY

__all__ = [
    "NoServerAvailable",
    "RequestDistributor",
    "ServerRecord",
]


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

    def panel_row(self, jobs: int) -> Dict[str, object]:
        """One row of the Fig. 7 monitoring panel."""
        return {
            "Worker": self.url,
            "Port": self.port,
            "Status": "online" if self.online else "offline",
            "Jobs": jobs,
            "Transport": self.transport,
        }


class RequestDistributor:
    """The Measurement server list of Fig. 6: registry, heartbeats,
    online state and server selection.  It holds no per-job state;
    the Coordinator owns the job → server mapping."""

    def __init__(
        self,
        heartbeat_timeout: float = 30.0,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.heartbeat_timeout = heartbeat_timeout
        self._servers: Dict[str, ServerRecord] = {}
        #: the server picked last; ties rotate on from it
        self._last_pick: Optional[str] = None
        self.offline_events = 0
        #: telemetry: the offline count and the online column of the
        #: Fig. 7 panel, read from the list
        registry = telemetry.registry
        registry.sampled(
            "counter", "sheriff_dispatch_offline_events_total",
            "Servers marked offline (missed heartbeats or dead sends)", (),
            lambda: self.offline_events,
        )
        registry.sampled(
            "gauge", "sheriff_server_online",
            "1 = server online, 0 = offline (Fig. 7)",
            ("server", "url", "port"),
            lambda: {
                (s.name, s.url, s.port): int(s.online)
                for s in self._servers.values()
            },
        )

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
        return record

    def remove_server(self, name: str) -> None:
        self._servers.pop(name, None)

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
                expired.append(record.name)
        return expired

    def mark_offline(self, name: str) -> None:
        """Declare a server dead (e.g. a send failed)."""
        record = self.server(name)
        if record.online:
            record.online = False
            self.offline_events += 1

    # -- assignment ---------------------------------------------------------------
    def select_server(self, load: Dict[str, int]) -> ServerRecord:
        """Step 2 of Fig. 6: the online server with the fewest pending
        jobs, given each server's load (``Coordinator.load()``).  Ties
        go to the first tied server after the last pick, in
        registration order."""
        records = list(self._servers.values())
        after = next(
            (i + 1 for i, s in enumerate(records) if s.name == self._last_pick), 0
        )
        online = [
            (load.get(s.name, 0), (i - after) % len(records), s)
            for i, s in enumerate(records) if s.online
        ]
        if not online:
            raise NoServerAvailable("no online Measurement server")
        pick = min(online, key=lambda entry: entry[:2])[2]
        self._last_pick = pick.name
        return pick

    def monitoring_rows(self, load: Dict[str, int]) -> List[Dict[str, object]]:
        """The Fig. 7 panel: every server with status and pending jobs."""
        return [s.panel_row(load.get(s.name, 0)) for s in self._servers.values()]
