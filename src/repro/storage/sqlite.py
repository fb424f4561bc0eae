"""The sqlite storage engine: real tables, real indexes, WAL.

The paper's deployment ran one tuned MySQL node; this engine is the
reproduction's equivalent on :mod:`sqlite3` (in the standard library,
so nothing to install).  Each logical table is a real SQL table with

* an ``_id INTEGER PRIMARY KEY`` fed from a Python-side sequence shared
  across tables — identical to the memory engine's id stream, and
  continued from the largest stored ``_id`` when a database file is
  reopened;
* one native column per declared secondary index
  (``responses.job_id``, ``requests.domain``, ``requests.user_id``),
  each covered by a ``CREATE INDEX`` B-tree, so the hot ``sp_*``
  lookups are index seeks;
* a ``data`` column carrying the full row as JSON (tuples tagged so
  they round-trip), which is what scans and lookups decode — rows come
  back byte-identical to what the memory engine returns (pinned by
  ``tests/storage/test_backend_equivalence.py``).

The engine works on result sets, not rows.  A read is one ``SELECT``
whose ``data`` texts are joined into one JSON array.  ``lookup`` decodes
that array with one ``json.loads``; the Python walk that restores tagged
tuples runs only when the tag occurs in the text (a price check's
response rows never carry it).  ``lookup_json`` — the read a remote
reader's reply is spliced from — returns the joined array as it is,
since a stored text already is the wire form of its row; only a text
that mentions the tag is decoded, restored and re-encoded, so its
tuples leave as lists.

A write prepares every row of every batch first — ``_id``, index
values, JSON text (tuples tagged only when the text holds an array) —
and lands them with one ``executemany`` per table and one ``commit``,
so a write is stored whole or not at all and a failed write consumes
no ids.

File-backed databases run in WAL journal mode (readers never block the
writer — the deployment story of App. 10.2.1); the default is a private
in-memory database, which keeps the tier-1 suite hermetic.
"""

from __future__ import annotations

import json
import sqlite3
from collections import Counter
from itertools import chain
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.storage.backend import (
    INDEXED_COLUMNS,
    TABLES,
    StorageBackend,
    compact_json,
    indexable_scalar,
)

__all__ = ["SqliteBackend"]

#: JSON tag marking a tuple (JSON itself only has arrays)
_TUPLE_TAG = "__tuple__"

#: rows a ``scan`` decodes per ``json.loads``, so a full-table read never
#: holds a second copy of the table as one string
_SCAN_CHUNK = 512


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


def _array(texts: Iterable[str]) -> str:
    """A result set's ``data`` texts as one JSON array text."""
    return "[" + ",".join(texts) + "]"


def _decode(text: str) -> List[Dict[str, Any]]:
    """The rows of an :func:`_array` text: one JSON pass, and the
    tuple-restoring walk only if some row mentions the tag at all."""
    rows = json.loads(text)
    if _TUPLE_TAG in text:
        return _from_jsonable(rows)
    return rows


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
        #: table -> its INSERT statement (one text per table, so sqlite3's
        #: statement cache compiles each once)
        self._insert_sql: Dict[str, str] = {}
        last_id = 0
        for table in TABLES:
            columns = INDEXED_COLUMNS.get(table, ())
            index_cols = "".join(f", {column}" for column in columns)
            self._conn.execute(
                f"CREATE TABLE IF NOT EXISTS {table} "
                f"(_id INTEGER PRIMARY KEY{index_cols}, data TEXT NOT NULL)"
            )
            present = {
                info[1] for info in self._conn.execute(f"PRAGMA table_info({table})")
            }
            for column in columns:
                if column not in present:
                    self._add_index_column(table, column)
                self._conn.execute(
                    f"CREATE INDEX IF NOT EXISTS idx_{table}_{column} "
                    f"ON {table}({column})"
                )
            marks = ", ".join("?" * (2 + len(columns)))
            self._insert_sql[table] = (
                f"INSERT INTO {table} (_id{index_cols}, data) VALUES ({marks})"
            )
            (stored,) = self._conn.execute(
                f"SELECT MAX(_id) FROM {table}"
            ).fetchone()
            last_id = max(last_id, stored or 0)
        self._conn.commit()
        #: the ``_id`` the next stored row gets; a reopened file continues
        #: after the largest id any table holds
        self._next_id = last_id + 1

    # -- internals --------------------------------------------------------
    def _add_index_column(self, table: str, column: str) -> None:
        """Add an index column a file written before it was declared
        lacks, filled from the stored rows as :func:`_index_value` fills
        it: scalars (a boolean as 0/1), NULL for anything else."""
        self._conn.execute(f"ALTER TABLE {table} ADD COLUMN {column}")
        self._conn.execute(
            f"UPDATE {table} SET {column} = json_extract(data, '$.{column}') "
            f"WHERE json_type(data, '$.{column}') "
            f"IN ('text', 'integer', 'real', 'true', 'false')"
        )

    def _prepare(
        self, table: str, rows: List[Dict[str, Any]], first_id: int
    ) -> List[Tuple[Any, ...]]:
        """The INSERT parameters of ``rows`` — ``(_id, index values…,
        data)`` each, ids counted on from ``first_id`` and stamped into
        the rows — touching neither the sequence nor the database, so a
        row that cannot be encoded fails its write before the first
        statement runs."""
        self._check_table(table)
        columns = INDEXED_COLUMNS.get(table, ())
        params = []
        for row_id, row in enumerate(rows, first_id):
            row["_id"] = row_id
            text = compact_json(row)
            if "[" in text:  # a tuple, somewhere, encodes as an array
                text = compact_json(_jsonable(row))
            params.append(
                (row_id, *[_index_value(row, column) for column in columns], text)
            )
        return params

    # -- writes -----------------------------------------------------------
    def insert_batches(
        self, batches: Sequence[Tuple[str, List[Dict[str, Any]]]]
    ) -> List[List[int]]:
        prepared = []
        next_id = self._next_id
        for table, rows in batches:
            params = self._prepare(table, rows, next_id)
            prepared.append((self._insert_sql[table], params))
            next_id += len(params)
        with self._conn:  # one commit, or a rollback of whatever made it leave
            for sql, params in prepared:
                self._conn.executemany(sql, params)
        self._next_id = next_id
        return [[row_params[0] for row_params in params] for _, params in prepared]

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
        cursor = self._conn.execute(f"SELECT data FROM {table} ORDER BY _id")
        rows: List[Dict[str, Any]] = []
        while True:
            chunk = cursor.fetchmany(_SCAN_CHUNK)
            if not chunk:
                return rows
            decoded = _decode(_array(chain.from_iterable(chunk)))
            rows.extend(decoded if where is None else filter(where, decoded))

    def _seek(self, table: str, column: str, value: Any) -> str:
        """The stored rows whose indexed ``column`` equals ``value``, as
        one array text: one ``SELECT`` through the column's index."""
        self._check_table(table)
        self.index_hits += 1
        if value is None or not indexable_scalar(value):
            return "[]"
        if isinstance(value, bool):
            value = int(value)
        return _array(chain.from_iterable(self._conn.execute(
            f"SELECT data FROM {table} WHERE {column} = ? ORDER BY _id",
            (value,),
        )))

    def lookup(self, table: str, column: str, value: Any) -> List[Dict[str, Any]]:
        if column not in INDEXED_COLUMNS.get(table, ()):
            self.index_misses += 1
            return self.scan(table, lambda r: r.get(column) == value)
        return _decode(self._seek(table, column, value))

    def lookup_json(self, table: str, column: str, value: Any) -> str:
        if column not in INDEXED_COLUMNS.get(table, ()):
            return super().lookup_json(table, column, value)
        text = self._seek(table, column, value)
        if _TUPLE_TAG in text:
            return compact_json(_decode(text))
        return text

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
