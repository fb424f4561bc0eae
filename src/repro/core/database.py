"""The shared Database server (Sect. 3.1.1 and App. 10.2.1).

The paper's first design ran one RDBMS per Measurement server and hit
consistency problems; the deployed system centralizes a single MySQL
instance on a dedicated node, tuned with a warm connection-thread pool
and stored procedures.  This module models that server as a *facade*:

* the rows live in a pluggable :mod:`repro.storage` engine — the
  original in-memory store or a real :mod:`sqlite3` database, both
  row-identical and both carrying secondary indexes on the hot columns
  (``responses.job_id``, ``requests.domain``, ``requests.user_id``) so
  the canned ``sp_*`` queries the Measurement servers issue are index
  seeks instead of O(n) scans;
* the facade owns everything operational: query accounting and the
  telemetry instruments.  Its callers take turns: the transport
  handler (:func:`database_rpc_handler`) runs one stored procedure at a
  time, as the engines — like the single-writer MySQL node they
  model — expect.

A price check is one write, :meth:`DatabaseServer.sp_record_job`: the
request row and the job's response rows in one query and one engine
transaction, keyed on ``job_id`` so a write the transport sent twice is
stored once.  The server builds no row dict: it hands the engine the
batch as it arrived, column-wise, with ``job_id`` in front
(:func:`_response_batches`); a dict row (``insert``, a batch whose
rows have different keys) is turned into that form once.

Over a transport (:func:`database_rpc_handler` / :class:`DatabaseClient`)
the two directions travel differently.  A written batch crosses
column-wise (:data:`RowBatch`, write-only).  A read crosses as the
engine holds it: ``sp_responses_for_job_json`` hands the stored result
set over as one JSON array, the codec splices it into the reply as
:class:`~repro.net.protocol.RawJSON`, and the client's ``decode`` is the
only parse — the server neither decodes nor re-encodes the rows, and
they arrive with the key order in-process callers see.

A deployment runs one of these servers, on the sqlite engine by
default, as the paper's $heriff runs one MySQL node.
"""

from __future__ import annotations

import threading
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.errors import UnknownTable
from repro.net.protocol import RawJSON
from repro.obs import NULL_TELEMETRY
from repro.storage.backend import (
    TABLES,
    Batch,
    StorageBackend,
    dict_batches,
    last_position,
    make_backend,
)

__all__ = [
    "DatabaseClient",
    "DatabaseServer",
    "RowBatch",
    "TABLES",
    "UnknownTable",
    "database_rpc_handler",
]

#: the response rows a write procedure takes: a list of field dicts, or
#: the same rows column-wise — ``{"cols": [sorted column names], "rows":
#: [one value sequence per row]}`` — the form a batch crosses the wire in
RowBatch = Union[List[Dict[str, Any]], Dict[str, Any]]

#: a request row's columns, in stored order
REQUEST_COLUMNS = ("job_id", "user_id", "url", "domain", "time")


class DatabaseServer:
    """In-process stand-in for the dedicated MySQL node."""

    def __init__(
        self,
        backend: Union[StorageBackend, str] = "sqlite",
        telemetry=NULL_TELEMETRY,
    ) -> None:
        #: the storage engine holding the rows ("sqlite" by default;
        #: "memory" or an engine instance)
        self.backend = make_backend(backend)
        self.query_count = 0
        self.batched_writes = 0
        #: simulated time of the newest row written, taken from the
        #: rows' own ``time`` fields — no clock plumbing needed.  The
        #: ops layer's staleness probe reads this.
        self.last_write_time: Optional[float] = None
        #: telemetry: the batch-size histogram and the index-hit counter
        #: that proves the hot ``sp_*`` queries resolve through secondary
        #: indexes.  ``query_count`` is scraped by the deployment that
        #: owns the server (the shards of a sharded database share one
        #: registry, and a sampled family has one source)
        registry = telemetry.registry
        self._m_batch_rows = registry.histogram(
            "sheriff_db_batch_rows",
            "Rows per batched insert (sp_record_responses)",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self._m_index_hits = registry.counter(
            "sheriff_db_index_hits_total",
            "Stored-procedure queries answered through a secondary index",
        )

    def _note_write_times(self, stamps: Iterable[Any]) -> None:
        """Advance ``last_write_time`` to the newest of the ``time``
        values of rows the engine has just stored — never of a write
        that failed."""
        stamps = [stamp for stamp in stamps if isinstance(stamp, (int, float))]
        if stamps:
            newest = float(max(stamps))
            if self.last_write_time is None or newest > self.last_write_time:
                self.last_write_time = newest

    # -- generic table access -----------------------------------------------
    def insert(self, table: str, row: Dict[str, Any]) -> int:
        self.query_count += 1
        row_id = self.backend.insert(table, row)
        self._note_write_times((row.get("time"),))
        return row_id

    def scan(
        self, table: str, where: Optional[Callable[[Dict[str, Any]], bool]] = None
    ) -> List[Dict[str, Any]]:
        self.query_count += 1
        return self.backend.scan(table, where)

    def _seek(self, read: Callable[[str, str, Any], Any], table: str,
              column: str, value: Any) -> Any:
        """One query through an engine read, counting the index hit."""
        self.query_count += 1
        hits_before = self.backend.index_hits
        result = read(table, column, value)
        if self.backend.index_hits > hits_before:
            self._m_index_hits.inc()
        return result

    def lookup(self, table: str, column: str, value: Any) -> List[Dict[str, Any]]:
        """Equality lookup through the engine's secondary index."""
        return self._seek(self.backend.lookup, table, column, value)

    def delete_rows(self, table: str, ids: Sequence[int]) -> int:
        """Remove rows by ``_id`` (the PII audit's delete path)."""
        self.query_count += 1
        return self.backend.delete_rows(table, ids)

    def count(self, table: str) -> int:
        return self.backend.count(table)

    def close(self) -> None:
        """Close the storage engine (a sqlite engine's connection)."""
        self.backend.close()

    # -- stored procedures -------------------------------------------------
    def sp_record_request(
        self,
        job_id: str,
        user_id: str,
        url: str,
        domain: str,
        time: float,
    ) -> int:
        return self.insert(
            "requests",
            {"job_id": job_id, "user_id": user_id, "url": url,
             "domain": domain, "time": time},
        )

    def _batch_stored(self, n_rows: int) -> None:
        self.batched_writes += 1
        self._m_batch_rows.observe(n_rows)

    def sp_record_responses(self, job_id: str, rows: RowBatch) -> List[int]:
        """A job's response rows in one query, handed to the engine
        column-wise (:func:`_response_batches`).  A batch the engine
        refuses counts as a query but not as a batched write."""
        self.query_count += 1
        batches = _response_batches(job_id, rows)
        ids = list(chain.from_iterable(self.backend.insert_batches(batches)))
        self._batch_stored(len(ids))
        self._note_write_times(_column_values(batches, "time"))
        return ids

    def sp_record_job(
        self,
        job_id: str,
        user_id: str,
        url: str,
        domain: str,
        time: float,
        rows: RowBatch,
    ) -> List[int]:
        """One price check's write: its request row and its response
        rows in one query and one engine transaction, whole or not at
        all.  Returns the ``_id``\\ s, the request's first — the ones
        :meth:`sp_record_request` then :meth:`sp_record_responses` would
        have assigned.

        Keyed on ``job_id``: a call for a job whose request is stored
        (a write the transport sent again after its reply was lost)
        writes nothing and returns the stored ids.  The job's ``time``
        is its write time for ``last_write_time``.
        """
        self.query_count += 1
        stored = self.backend.lookup("requests", "job_id", job_id)
        if stored:
            responses = self.backend.lookup("responses", "job_id", job_id)
            return [stored[0]["_id"], *(row["_id"] for row in responses)]
        request = ("requests", REQUEST_COLUMNS, [(job_id, user_id, url, domain, time)])
        (request_id,), *response_ids = self.backend.insert_batches(
            [request, *_response_batches(job_id, rows)]
        )
        response_ids = list(chain.from_iterable(response_ids))
        self._batch_stored(len(response_ids))
        self._note_write_times((time,))
        return [request_id, *response_ids]

    def sp_responses_for_job(self, job_id: str) -> List[Dict[str, Any]]:
        """Index seek on ``responses.job_id`` (was an O(n) scan)."""
        return self.lookup("responses", "job_id", job_id)

    def sp_responses_for_job_json(self, job_id: str) -> str:
        """:meth:`sp_responses_for_job` as one JSON array in wire form —
        the same query, with the rows left as the engine holds them."""
        return self._seek(self.backend.lookup_json, "responses", "job_id", job_id)


# -- transport surface -------------------------------------------------------
#
# The stored procedures a remote caller may invoke over
# ``Transport.call(src, "db", method, payload)``: a Measurement server's
# job write, and the request/response writes and the per-job read the
# benchmark's ``report_rw`` times.  Generic ``scan`` with a Python
# predicate cannot cross a process boundary and stays local.
DB_RPC_METHODS = (
    "sp_record_request",
    "sp_record_responses",
    "sp_record_job",
    "sp_responses_for_job",
)


def _pack_rows(rows: RowBatch) -> RowBatch:
    """A written row batch as it crosses the wire: column-wise — the keys
    once, then one value list per row — when every row has the same
    string keys, the plain list otherwise; a batch already column-wise
    goes as it is.  ``cols`` is sorted because the codec sorts keys, so
    the server stores exactly the rows the plain list would have given.
    Reads do not pack: they travel as the stored texts
    (:class:`~repro.net.protocol.RawJSON`)."""
    if isinstance(rows, dict):
        return rows
    rows = list(rows)
    if not rows:
        return rows
    keys = rows[0].keys()
    # itemgetter of one column returns the value, not a 1-tuple
    if len(keys) < 2 or not all(type(key) is str for key in keys):
        return rows
    if any(row.keys() != keys for row in rows):
        return rows
    cols = sorted(keys)
    return {"cols": cols, "rows": list(map(itemgetter(*cols), rows))}


def _response_batches(job_id: str, rows: RowBatch) -> List[Batch]:
    """The ``responses`` batches a write hands the engine: the rows
    column-wise with ``job_id`` in front — a column-wise batch as it
    arrived (its ``cols`` in their sorted order), dict rows as
    :func:`dict_batches` cuts them — and no row dict built."""
    if isinstance(rows, dict):
        batches = [("responses", rows["cols"], rows["rows"])]
    else:
        batches = dict_batches("responses", rows)
    return [
        (table, ("job_id", *columns), [(job_id, *values) for values in run])
        for table, columns, run in batches
    ]


def _column_values(batches: Sequence[Batch], name: str) -> Iterable[Any]:
    """Every row's value for ``name`` across ``batches`` (rows without
    such a column give none)."""
    for _, columns, rows in batches:
        at = last_position(columns, name)
        if at is not None:
            yield from map(itemgetter(at), rows)


def database_rpc_handler(db) -> Callable[[str, Any], Any]:
    """Expose a database (single server or sharded router) as a
    :class:`~repro.net.transport.Transport` endpoint handler.

    It answers the :data:`DB_RPC_METHODS` procedures and nothing else:
    any other method raises ``KeyError``, which the transport maps to a
    ``RemoteCallError``.

    Calls are serialized by a lock: the socket transport serves every
    connection from its own thread, and the storage engines (like
    the real single-writer MySQL node they model) expect one statement
    at a time.

    ``sp_responses_for_job`` is answered with the stored result set as
    :class:`~repro.net.protocol.RawJSON`: the codec splices the array
    into the reply, and the caller's ``decode`` is its only parse.  A
    written batch reaches the stored procedure as it crossed the wire.
    """
    serial = threading.Lock()

    def handle(method: str, payload: Any) -> Any:
        if method not in DB_RPC_METHODS:
            raise KeyError(f"unknown database method {method!r}")
        kwargs = dict(payload or {})
        with serial:
            if method == "sp_responses_for_job":
                return RawJSON(db.sp_responses_for_job_json(kwargs["job_id"]))
            return getattr(db, method)(**kwargs)

    return handle


class DatabaseClient:
    """Transport-backed stand-in for a :class:`DatabaseServer` handle.

    Speaks the same ``sp_*`` stored-procedure surface, but every call is
    a :meth:`Transport.call` round trip to the ``db`` endpoint instead
    of a direct method call — the same component code persists rows
    whether the database lives in-process (sim) or across a socket
    (mesh).
    """

    def __init__(
        self,
        transport,
        src: str,
        dst: str = "db",
        timeout: Optional[float] = None,
    ) -> None:
        self.transport = transport
        self.src = src
        self.dst = dst
        self.timeout = timeout

    def _call(self, method: str, payload: Optional[Dict[str, Any]] = None) -> Any:
        return self.transport.call(
            self.src, self.dst, method, payload, timeout=self.timeout
        )

    def sp_record_request(
        self, job_id: str, user_id: str, url: str, domain: str, time: float
    ) -> int:
        return self._call(
            "sp_record_request",
            {"job_id": job_id, "user_id": user_id, "url": url,
             "domain": domain, "time": time},
        )

    def sp_record_responses(self, job_id: str, rows: RowBatch) -> List[int]:
        return self._call(
            "sp_record_responses", {"job_id": job_id, "rows": _pack_rows(rows)}
        )

    def sp_record_job(
        self,
        job_id: str,
        user_id: str,
        url: str,
        domain: str,
        time: float,
        rows: RowBatch,
    ) -> List[int]:
        return self._call(
            "sp_record_job",
            {"job_id": job_id, "user_id": user_id, "url": url,
             "domain": domain, "time": time, "rows": _pack_rows(rows)},
        )

    def sp_responses_for_job(self, job_id: str) -> List[Dict[str, Any]]:
        """The rows as the server stored them: each row's keys in stored
        order, tuples as lists."""
        return self._call("sp_responses_for_job", {"job_id": job_id})
