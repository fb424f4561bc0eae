"""The sqlite storage engine: real tables, real indexes, WAL.

The paper's deployment ran one tuned MySQL node; this engine is the
reproduction's equivalent on :mod:`sqlite3` (in the standard library,
so nothing to install).  Each logical table is a real SQL table with

* an ``_id INTEGER PRIMARY KEY`` fed from a Python-side sequence shared
  across tables — identical to the memory engine's id stream;
* one native column per declared secondary index
  (``responses.job_id``, ``requests.domain``, ``requests.user_id``),
  each covered by a ``CREATE INDEX`` B-tree, so the hot ``sp_*``
  lookups are index seeks;
* a ``data`` column carrying the full row as JSON (tuples tagged so
  they round-trip), which is what scans and lookups decode — rows come
  back byte-identical to what the memory engine returns (pinned by
  ``tests/storage/test_backend_equivalence.py``).

File-backed databases run in WAL journal mode (readers never block the
writer — the deployment story of App. 10.2.1); the default is a private
in-memory database, which keeps the tier-1 suite hermetic.
"""

from __future__ import annotations

import itertools
import json
import sqlite3
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.storage.backend import (
    INDEXED_COLUMNS,
    TABLES,
    StorageBackend,
    indexable_scalar,
)

__all__ = ["SqliteBackend"]

#: JSON tag marking a tuple (JSON itself only has arrays)
_TUPLE_TAG = "__tuple__"


def _jsonable(value: Any) -> Any:
    """Encode tuples as tagged objects so decoding restores them."""
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_jsonable(v) for v in value]}
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value.keys()) == {_TUPLE_TAG}:
            return tuple(_from_jsonable(v) for v in value[_TUPLE_TAG])
        return {k: _from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


def _index_value(row: Dict[str, Any], column: str) -> Any:
    """The native value stored in an index column (NULL when the row
    has none, or when the value is not an indexable scalar)."""
    value = row.get(column)
    if not indexable_scalar(value):
        return None
    if isinstance(value, bool):
        return int(value)
    return value


class SqliteBackend(StorageBackend):
    """Row store on sqlite3 with covering secondary indexes."""

    name = "sqlite"

    def __init__(self, path: str = ":memory:") -> None:
        super().__init__()
        self.path = path
        # cross-thread access only happens through the transport's RPC
        # handler, which serializes calls; sqlite's own affinity check
        # would otherwise reject the transport's serving threads
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._ids = itertools.count(1)
        for table in TABLES:
            index_cols = "".join(
                f", {column}" for column in INDEXED_COLUMNS.get(table, ())
            )
            self._conn.execute(
                f"CREATE TABLE IF NOT EXISTS {table} "
                f"(_id INTEGER PRIMARY KEY{index_cols}, data TEXT NOT NULL)"
            )
            for column in INDEXED_COLUMNS.get(table, ()):
                self._conn.execute(
                    f"CREATE INDEX IF NOT EXISTS idx_{table}_{column} "
                    f"ON {table}({column})"
                )
        self._conn.commit()

    # -- internals --------------------------------------------------------
    def _columns(self, table: str) -> Sequence[str]:
        self._check_table(table)
        return INDEXED_COLUMNS.get(table, ())

    def _encode_row(self, row: Dict[str, Any]) -> str:
        return json.dumps(_jsonable(row), separators=(",", ":"))

    @staticmethod
    def _decode_row(data: str) -> Dict[str, Any]:
        return _from_jsonable(json.loads(data))

    def _insert_one(self, table: str, columns: Sequence[str],
                    row: Dict[str, Any]) -> int:
        row = dict(row)
        row_id = next(self._ids)
        row["_id"] = row_id
        placeholders = ", ".join("?" * (2 + len(columns)))
        names = "_id" + "".join(f", {c}" for c in columns) + ", data"
        values = [row_id]
        values.extend(_index_value(row, c) for c in columns)
        values.append(self._encode_row(row))
        self._conn.execute(
            f"INSERT INTO {table} ({names}) VALUES ({placeholders})", values
        )
        return row_id

    # -- writes -----------------------------------------------------------
    def insert(self, table: str, row: Dict[str, Any]) -> int:
        columns = self._columns(table)
        row_id = self._insert_one(table, columns, row)
        self._conn.commit()
        return row_id

    def insert_many(self, table: str, rows: Sequence[Dict[str, Any]]) -> List[int]:
        columns = self._columns(table)
        ids = [self._insert_one(table, columns, row) for row in rows]
        self._conn.commit()
        return ids

    def delete_rows(self, table: str, ids: Sequence[int]) -> int:
        self._check_table(table)
        if not ids:
            return 0
        marks = ", ".join("?" * len(ids))
        cursor = self._conn.execute(
            f"DELETE FROM {table} WHERE _id IN ({marks})", list(ids)
        )
        self._conn.commit()
        return cursor.rowcount

    # -- reads ------------------------------------------------------------
    def scan(
        self,
        table: str,
        where: Optional[Callable[[Dict[str, Any]], bool]] = None,
    ) -> List[Dict[str, Any]]:
        self._check_table(table)
        rows = [
            self._decode_row(data)
            for (data,) in self._conn.execute(
                f"SELECT data FROM {table} ORDER BY _id"
            )
        ]
        if where is None:
            return rows
        return [r for r in rows if where(r)]

    def lookup(self, table: str, column: str, value: Any) -> List[Dict[str, Any]]:
        if column not in INDEXED_COLUMNS.get(table, ()):
            self.index_misses += 1
            return self.scan(table, lambda r: r.get(column) == value)
        self._check_table(table)
        self.index_hits += 1
        if value is None or not indexable_scalar(value):
            return []
        if isinstance(value, bool):
            value = int(value)
        return [
            self._decode_row(data)
            for (data,) in self._conn.execute(
                f"SELECT data FROM {table} WHERE {column} = ? ORDER BY _id",
                (value,),
            )
        ]

    def group_count(self, table: str, column: str) -> Counter:
        if column not in INDEXED_COLUMNS.get(table, ()):
            self.index_misses += 1
            counts: Counter = Counter()
            for row in self.scan(table):
                value = row.get(column)
                if value is not None:
                    counts[value] += 1
            return counts
        self._check_table(table)
        self.index_hits += 1
        return Counter(
            {
                value: n
                for value, n in self._conn.execute(
                    f"SELECT {column}, COUNT(*) FROM {table} "
                    f"WHERE {column} IS NOT NULL GROUP BY {column}"
                )
            }
        )

    def count(self, table: str) -> int:
        self._check_table(table)
        (n,) = self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
        return n

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        self._conn.close()
