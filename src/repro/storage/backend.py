"""The storage-engine protocol of the Database server.

A backend owns the rows; the :class:`repro.core.database.DatabaseServer`
facade owns everything operational (query accounting, metrics, the
``sp_*`` stored-procedure surface).  Engines must be
*row-identical*: the same insert/scan/delete workload against any two
backends yields byte-identical rows, the same ``_id`` sequence, and the
same query counts — that contract is what lets the memory engine
stand as the sqlite engine's equivalence oracle.

Contract notes:

* ``_id`` is one monotonically increasing sequence shared by all
  tables, starting at 1 — exactly the original dict-of-lists behavior;
  an engine whose rows outlive the process (a sqlite file) continues
  after the largest ``_id`` it holds when it is opened again;
* every write is one ``insert_batches`` call: one or more tables'
  batches in one transaction, all-or-nothing on every engine — every
  row is prepared before the first is stored, so a write that raises
  leaves the tables, the indexes and the id sequence as they were and a
  retry cannot store its first rows twice.  ``insert_batches`` keeps the
  dicts it is given as the stored rows (stamping ``_id`` into each);
  ``insert``/``insert_many`` store copies;
* ``scan``/``lookup`` return fresh dict copies in insertion order, so
  callers can never mutate stored rows through a result set;
* ``lookup(table, column, value)`` is the index path: for the declared
  :data:`INDEXED_COLUMNS` it must not be a full-table scan (the memory
  engine keeps per-value row lists, the sqlite engine real B-tree
  indexes); backends count ``index_hits``/``index_misses`` so the
  facade can expose the ratio as a metric;
* ``lookup_json`` is ``lookup`` as one JSON array in wire form (tuples
  become lists, compact ASCII text, each row's keys in stored order) —
  what a remote reader receives without the rows being decoded here;
* rows whose indexed column is missing or ``None`` are reachable by
  ``scan`` but not by ``lookup`` on that column.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro._jsontext import compact_encoder
from repro.core.errors import UnknownTable

#: the tables of the shared MySQL instance (App. 10.2.1)
TABLES: Tuple[str, ...] = (
    "users",
    "requests",
    "responses",
    "rejected_requests",
    "history_donations",
)

#: the secondary indexes every engine maintains — the hot ``sp_*``
#: queries resolve through these instead of scanning
#: (``requests.job_id`` is the key that makes a job write idempotent)
INDEXED_COLUMNS: Dict[str, Tuple[str, ...]] = {
    "responses": ("job_id",),
    "requests": ("domain", "user_id", "job_id"),
}

__all__ = [
    "INDEXED_COLUMNS",
    "StorageBackend",
    "TABLES",
    "compact_json",
    "indexable_scalar",
    "join_json_arrays",
    "make_backend",
]

_encode_compact = compact_encoder(sort_keys=False)


def compact_json(value: Any) -> str:
    """A value as wire-form JSON text: compact separators, ASCII escapes,
    keys in their own order — ``json.JSONEncoder(separators=(",", ":"))``'s
    text, from one encoder built at import (the engine encodes every
    stored row with it).  A value that is not JSON-representable raises
    ``TypeError``; a circular one, or one nested past the recursion
    limit, ``ValueError``."""
    try:
        return _encode_compact(value)
    except RecursionError as exc:
        raise ValueError(f"value nested too deep to encode (circular?): {exc}") from exc


def join_json_arrays(arrays: Iterable[str]) -> str:
    """One JSON array text holding the elements of ``arrays`` in order
    (each a :func:`compact_json` array text, so an empty one is ``[]``)."""
    return "[" + ",".join(text[1:-1] for text in arrays if text != "[]") + "]"


def indexable_scalar(value: Any) -> bool:
    """Whether a value can live in a secondary index.

    Indexes hold scalars only (strings in practice — job ids, domains,
    user ids); rows carrying anything else in an indexed column stay
    reachable by ``scan`` but are invisible to ``lookup`` on that column,
    identically across engines.
    """
    return isinstance(value, (str, int, float))


class StorageBackend:
    """Base class + protocol of a Database server storage engine."""

    #: short engine name ("memory", "sqlite") for reports and metrics
    name: str = "abstract"

    def __init__(self) -> None:
        #: lookups answered through a secondary index
        self.index_hits = 0
        #: lookups that had to fall back to a scan (unindexed column)
        self.index_misses = 0

    # -- writes -----------------------------------------------------------
    def insert(self, table: str, row: Dict[str, Any]) -> int:
        """Store a copy of one row; returns its freshly assigned ``_id``."""
        ((row_id,),) = self.insert_batches([(table, [dict(row)])])
        return row_id

    def insert_many(self, table: str, rows: Sequence[Dict[str, Any]]) -> List[int]:
        """Store copies of a batch of rows in one call, all of them or
        none; returns their ``_id``\\ s."""
        (ids,) = self.insert_batches([(table, [dict(row) for row in rows])])
        return ids

    def insert_batches(
        self, batches: Sequence[Tuple[str, List[Dict[str, Any]]]]
    ) -> List[List[int]]:
        """Store ``(table, rows)`` batches in one transaction, in order,
        all of them or none; returns each batch's ``_id``\\ s.

        The row dicts become the stored rows: each gets its ``_id``
        stamped in and may be kept as it is, so a caller hands over rows
        built for this write and does not touch them again.
        """
        raise NotImplementedError

    def delete_rows(self, table: str, ids: Sequence[int]) -> int:
        """Remove rows by ``_id``; returns how many were deleted."""
        raise NotImplementedError

    # -- reads ------------------------------------------------------------
    def scan(
        self,
        table: str,
        where: Optional[Callable[[Dict[str, Any]], bool]] = None,
    ) -> List[Dict[str, Any]]:
        """Full-table read (optionally filtered), in insertion order."""
        raise NotImplementedError

    def lookup(self, table: str, column: str, value: Any) -> List[Dict[str, Any]]:
        """Equality lookup; resolves through the secondary index when
        ``column`` is declared in :data:`INDEXED_COLUMNS`."""
        raise NotImplementedError

    def lookup_json(self, table: str, column: str, value: Any) -> str:
        """The rows :meth:`lookup` returns, as one JSON array in wire
        form; an engine that holds rows as text overrides this to skip
        the decode."""
        return compact_json(self.lookup(table, column, value))

    def count(self, table: str) -> int:
        raise NotImplementedError

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:  # pragma: no cover - trivial default
        """Release engine resources (file handles, connections)."""

    def _check_table(self, table: str) -> None:
        if table not in TABLES:
            raise UnknownTable(f"unknown table {table!r}")


def make_backend(
    spec: "StorageBackend | str" = "sqlite",
    path: Optional[str] = None,
) -> StorageBackend:
    """Resolve a backend spec into an engine instance.

    ``spec`` may be an engine instance (returned as-is) or an engine
    name: ``"sqlite"`` (the default) or ``"memory"``, the equivalence
    oracle.  ``path`` selects a file-backed sqlite database.
    """
    if isinstance(spec, StorageBackend):
        return spec
    spec = spec.lower()
    if spec == "memory":
        from repro.storage.memory import MemoryBackend

        return MemoryBackend()
    if spec in ("sqlite", "sqlite3"):
        from repro.storage.sqlite import SqliteBackend

        return SqliteBackend(path=path) if path else SqliteBackend()
    raise ValueError(
        f"unknown storage backend {spec!r} (expected 'memory' or 'sqlite')"
    )
