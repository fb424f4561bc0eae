"""Consistent-hash sharding of the Database server.

Table 1 shows the centralized architecture's response time blowing up
near 10 parallel tasks — the Database node's connection pool and table
scans are two of the contention points.  This module scales that node
horizontally while keeping every caller oblivious:

* :class:`HashRing` — a consistent-hash ring (virtual nodes on SHA-1,
  the classic Karger construction) mapping routing keys to shard
  names, stable under shard-count changes;
* :class:`ShardedDatabase` — N independent
  :class:`repro.core.database.DatabaseServer` shards behind the same
  ``sp_*`` write and read procedures as a single server.  Jobs route by
  *domain* (every row of one price check lands on one shard, so the
  per-job queries stay single-shard); ``scan``, ``lookup`` and
  ``count`` scatter to every shard and merge.

The router keeps a ``job_id -> shard`` map.  A job's first write pins
it: the request row's domain shard when the request comes first (the
Measurement server's ``sp_record_job`` carries both), the job id's own
shard when a response does.  Every later write and per-job lookup of the job goes to
the pinned shard without a scatter, whichever call the writes arrive in.

Each shard numbers ``_id`` on its own, so an ``_id`` names a row only
together with its shard: a delete goes to the shard the row was read
from (``shards[name].delete_rows``), never to the router.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.core.errors import ConnectionPoolExhausted
from repro.obs import NULL_TELEMETRY
from repro.storage.backend import join_json_arrays

__all__ = ["HashRing", "ShardedDatabase"]


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Deterministic (SHA-1 of ``"node#replica"`` / of the key), so the
    same key routes to the same shard in every run and on every
    backend.
    """

    def __init__(self, nodes: Sequence[str], replicas: int = 64) -> None:
        if not nodes:
            raise ValueError("hash ring needs at least one node")
        self.replicas = replicas
        self._points: List[int] = []
        self._owners: Dict[int, str] = {}
        for node in nodes:
            for i in range(replicas):
                point = self._hash(f"{node}#{i}")
                self._points.append(point)
                self._owners[point] = node
        self._points.sort()

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha1(key.encode("utf-8")).digest()[:8], "big"
        )

    def node_for(self, key: str) -> str:
        point = self._hash(key)
        index = bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]


class ShardedDatabase:
    """N Database server shards behind the single-server surface."""

    def __init__(
        self,
        n_shards: int = 4,
        max_connections: int = 32,
        backend: Union[str, None] = None,
        replicas: int = 64,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        from repro.core.database import DatabaseServer  # avoid import cycle

        if n_shards < 1:
            raise ValueError(f"need at least 1 shard, got {n_shards}")
        self.shard_names: List[str] = [
            f"shard-{i:02d}" for i in range(n_shards)
        ]
        self.shards: Dict[str, DatabaseServer] = {
            name: DatabaseServer(
                max_connections=max_connections, backend=backend,
                telemetry=telemetry,
            )
            for name in self.shard_names
        }
        self.ring = HashRing(self.shard_names, replicas=replicas)
        self.max_connections = max_connections
        #: router-level pool: one slot held per job write transaction,
        #: mirroring the facade semantics callers already rely on
        self._connections_in_use = 0
        self.peak_connections = 0
        #: job -> shard routing table (set by the job's first write)
        self._job_shard: Dict[str, str] = {}
        #: cross-shard stored procedures that had to scatter-gather
        self.scatter_queries = 0
        #: telemetry: per-shard occupancy and the router's own pool
        registry = telemetry.registry
        self._m_shard_rows = registry.gauge(
            "sheriff_db_shard_rows",
            "Rows currently held, per shard and table",
            labelnames=("shard", "table"),
        )
        self._m_connections = registry.gauge(
            "sheriff_db_router_connections_busy",
            "Router-level connections currently held",
        )

    def _sync_occupancy(self, shard_name: str, table: str) -> None:
        if self._m_shard_rows.enabled:  # a count is a query: skip it unwatched
            self._m_shard_rows.set(
                self.shards[shard_name].count(table),
                shard=shard_name, table=table,
            )

    # -- routing ------------------------------------------------------------
    def shard_for(self, key: str) -> str:
        """The shard name owning a routing key (a domain)."""
        return self.ring.node_for(key)

    def shard_for_job(self, job_id: str) -> Optional[str]:
        """Where a known job's rows live (None before its first write)."""
        return self._job_shard.get(job_id)

    def _pin(self, job_id: str, key: str) -> str:
        """The shard the job is pinned to; a job's first write pins it to
        the shard owning ``key``."""
        shard_name = self._job_shard.get(job_id)
        if shard_name is None:
            shard_name = self._job_shard[job_id] = self.shard_for(key)
        return shard_name

    # -- aggregate accounting ------------------------------------------------
    @property
    def query_count(self) -> int:
        return sum(s.query_count for s in self.shards.values())

    @property
    def batched_writes(self) -> int:
        return sum(s.batched_writes for s in self.shards.values())

    @property
    def backend(self):
        """The first shard's engine (all shards run the same kind)."""
        return self.shards[self.shard_names[0]].backend

    def shard_row_counts(self, table: str = "responses") -> Dict[str, int]:
        """Occupancy per shard — the balance the ring is supposed to give."""
        return {
            name: shard.count(table) for name, shard in self.shards.items()
        }

    def shard_last_writes(self) -> Dict[str, Optional[float]]:
        """Newest row ``time`` written per shard (None = never written).

        The ops layer's shard-staleness probe compares these against
        the deployment clock: a shard whose neighbours keep taking
        writes while it sits still is stale, not merely idle.
        """
        return {
            name: shard.last_write_time
            for name, shard in self.shards.items()
        }

    # -- connection pool -----------------------------------------------------
    @contextmanager
    def connection(self) -> Iterator["ShardedDatabase"]:
        """One router-level slot; per-shard pools still bound each shard."""
        if self._connections_in_use >= self.max_connections:
            raise ConnectionPoolExhausted(
                f"all {self.max_connections} router connections busy"
            )
        self._connections_in_use += 1
        self.peak_connections = max(
            self.peak_connections, self._connections_in_use
        )
        self._m_connections.set(self._connections_in_use)
        try:
            yield self
        finally:
            self._connections_in_use -= 1
            self._m_connections.set(self._connections_in_use)

    # -- reads (scattered) ---------------------------------------------------
    def scan(
        self, table: str, where: Optional[Callable[[Dict[str, Any]], bool]] = None
    ) -> List[Dict[str, Any]]:
        """Scatter-gather scan, merged in shard order."""
        self.scatter_queries += 1
        rows: List[Dict[str, Any]] = []
        for name in self.shard_names:
            rows.extend(self.shards[name].scan(table, where))
        return rows

    def lookup(self, table: str, column: str, value: Any) -> List[Dict[str, Any]]:
        self.scatter_queries += 1
        rows: List[Dict[str, Any]] = []
        for name in self.shard_names:
            rows.extend(self.shards[name].lookup(table, column, value))
        return rows

    def count(self, table: str) -> int:
        return sum(s.count(table) for s in self.shards.values())

    # -- stored procedures ---------------------------------------------------
    def sp_record_request(
        self, job_id: str, user_id: str, url: str, domain: str, time: float
    ) -> int:
        shard_name = self._pin(job_id, domain)
        row_id = self.shards[shard_name].sp_record_request(
            job_id, user_id, url, domain, time
        )
        self._sync_occupancy(shard_name, "requests")
        return row_id

    def sp_record_responses(self, job_id: str, rows) -> List[int]:
        shard_name = self._pin(job_id, job_id)
        ids = self.shards[shard_name].sp_record_responses(job_id, rows)
        self._sync_occupancy(shard_name, "responses")
        return ids

    def sp_record_job(
        self, job_id: str, user_id: str, url: str, domain: str, time: float, rows
    ) -> List[int]:
        """The whole job on one shard, pinned by domain as
        :meth:`sp_record_request` pins it."""
        shard_name = self._pin(job_id, domain)
        ids = self.shards[shard_name].sp_record_job(
            job_id, user_id, url, domain, time, rows
        )
        self._sync_occupancy(shard_name, "requests")
        self._sync_occupancy(shard_name, "responses")
        return ids

    def sp_responses_for_job(self, job_id: str) -> List[Dict[str, Any]]:
        """Single-shard index seek when the job is known, else scatter."""
        known = self._job_shard.get(job_id)
        if known is not None:
            return self.shards[known].sp_responses_for_job(job_id)
        self.scatter_queries += 1
        rows: List[Dict[str, Any]] = []
        for name in self.shard_names:
            rows.extend(self.shards[name].sp_responses_for_job(job_id))
        return rows

    def sp_responses_for_job_json(self, job_id: str) -> str:
        """:meth:`sp_responses_for_job` as one JSON array in wire form; a
        scatter joins the shards' arrays in shard order."""
        known = self._job_shard.get(job_id)
        if known is not None:
            return self.shards[known].sp_responses_for_job_json(job_id)
        self.scatter_queries += 1
        return join_json_arrays(
            self.shards[name].sp_responses_for_job_json(job_id)
            for name in self.shard_names
        )
