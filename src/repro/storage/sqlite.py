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
values, JSON text (the dict its values make under the batch's columns,
``_id`` last; tuples tagged only when the text holds an array) — and
lands each table's rows as multi-row ``INSERT … VALUES (…),(…)``
statements, as many rows to a statement as 999 bound parameters hold
(SQLite's variable limit before 3.32, so the statements bind on any
build; a price check's 36 responses are one statement), and one
``commit``, so a write is stored whole or not at all and a failed write
consumes no ids.  A delete binds its ids in chunks of the same bound,
in one transaction.

File-backed databases run in WAL journal mode (readers never block the
writer — the deployment story of App. 10.2.1); the default is a private
in-memory database, which keeps the tier-1 suite hermetic.
"""

from __future__ import annotations

import json
import sqlite3
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.storage.backend import (
    INDEXED_COLUMNS,
    TABLES,
    Batch,
    StorageBackend,
    compact_json,
    indexable_scalar,
    last_position,
)

__all__ = ["SqliteBackend"]

#: JSON tag marking a tuple (JSON itself only has arrays)
_TUPLE_TAG = "__tuple__"

#: rows a ``scan`` decodes per ``json.loads``, so a full-table read never
#: holds a second copy of the table as one string
_SCAN_CHUNK = 512

#: parameters one statement binds at most: SQLite's variable limit before
#: 3.32 (32 766 since), so every statement binds on any build
_MAX_VARIABLES = 999


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


def _dict_text(columns: Sequence[str], values: Sequence[Any], row_id: int) -> str:
    """A row's ``data`` text encoded from the dict its values make under
    ``columns``, ``_id`` last, its tuples tagged if the text holds an
    array."""
    row = dict(zip(columns, values))
    row["_id"] = row_id
    text = compact_json(row)
    if "[" in text:  # a tuple, somewhere, encodes as an array
        text = compact_json(_jsonable(row))
    return text


def _index_value(value: Any) -> Any:
    """The native value an index column stores for a row's ``value``
    (NULL when the row has none, or when it is not an indexable scalar;
    a boolean as 0/1)."""
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
        #: table -> (the head of its INSERT statement, one row's marks,
        #: the parameters a row binds: ``_id``, index values, ``data``)
        self._insert_sql: Dict[str, Tuple[str, str, int]] = {}
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
            width = 2 + len(columns)
            self._insert_sql[table] = (
                f"INSERT INTO {table} (_id{index_cols}, data) VALUES ",
                "(" + ",".join("?" * width) + ")",
                width,
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
        self, table: str, columns: Sequence[str], rows: Sequence[Sequence[Any]],
        first_id: int,
    ) -> List[Any]:
        """The INSERT parameters of one batch, flat — ``_id``, index
        values, ``data`` for each row in turn — ids counted on from
        ``first_id``, touching neither the sequence nor the database, so
        a row that cannot be encoded fails its write before the first
        statement runs.  A row's ``data`` is the text of its values under
        ``columns`` with ``_id`` last."""
        self._check_batch(table, columns, rows)
        ids = range(first_id, first_id + len(rows))
        texts = list(map(_dict_text, repeat(columns), rows, ids))
        index_values = []
        for column in INDEXED_COLUMNS.get(table, ()):
            at = last_position(columns, column)
            index_values.append([None] * len(rows) if at is None else
                                [_index_value(values[at]) for values in rows])
        return list(chain.from_iterable(zip(ids, *index_values, texts)))

    def _insert(self, table: str, params: List[Any]) -> None:
        """Run one table's prepared parameters as multi-row ``INSERT``\\ s,
        each binding at most :data:`_MAX_VARIABLES` of them."""
        head, marks, width = self._insert_sql[table]
        step = _MAX_VARIABLES // width * width
        for start in range(0, len(params), step):
            chunk = params[start:start + step]
            self._conn.execute(head + ",".join([marks] * (len(chunk) // width)), chunk)

    # -- writes -----------------------------------------------------------
    def insert_batches(self, batches: Sequence[Batch]) -> List[List[int]]:
        prepared = []
        ids = []
        next_id = self._next_id
        for table, columns, rows in batches:
            prepared.append((table, self._prepare(table, columns, rows, next_id)))
            ids.append(list(range(next_id, next_id + len(rows))))
            next_id += len(rows)
        with self._conn:  # one commit, or a rollback of whatever made it leave
            # a table's consecutive batches (dict rows with different keys)
            # share its statements
            for table, run in groupby(prepared, itemgetter(0)):
                self._insert(table, list(chain.from_iterable(map(itemgetter(1), run))))
        self._next_id = next_id
        return ids

    def delete_rows(self, table: str, ids: Sequence[int]) -> int:
        self._check_table(table)
        ids = list(ids)
        deleted = 0
        with self._conn:  # one transaction, however many statements
            for start in range(0, len(ids), _MAX_VARIABLES):
                chunk = ids[start:start + _MAX_VARIABLES]
                deleted += self._conn.execute(
                    f"DELETE FROM {table} WHERE _id IN ({','.join('?' * len(chunk))})",
                    chunk,
                ).rowcount
        return deleted

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

    def count(self, table: str) -> int:
        self._check_table(table)
        (n,) = self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()
        return n

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        self._conn.close()
