"""The in-memory storage engine: dict-of-lists plus secondary indexes.

This is the original Database server store with the O(n) scans fixed:
for every column in :data:`repro.storage.backend.INDEXED_COLUMNS` the
engine keeps a per-value list of row references, appended on insert and
rebuilt on delete, so the hot ``sp_*`` queries (`responses.job_id`,
`requests.domain`, `requests.user_id`) are dict lookups instead of
full-table scans — the same shape a covering B-tree index gives the
sqlite engine.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import groupby
from operator import methodcaller
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.storage.backend import (
    INDEXED_COLUMNS,
    TABLES,
    StorageBackend,
    indexable_scalar,
)

__all__ = ["MemoryBackend"]


class MemoryBackend(StorageBackend):
    """Dict-of-lists tables with per-column hash indexes."""

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._tables: Dict[str, List[Dict[str, Any]]] = {t: [] for t in TABLES}
        #: table -> column -> value -> rows (references, insertion order)
        self._indexes: Dict[str, Dict[str, Dict[Any, List[Dict[str, Any]]]]] = {
            table: {column: defaultdict(list) for column in columns}
            for table, columns in INDEXED_COLUMNS.items()
        }
        #: the ``_id`` the next stored row gets (one sequence, all tables)
        self._next_id = 1

    # -- internals --------------------------------------------------------
    def _table(self, table: str) -> List[Dict[str, Any]]:
        self._check_table(table)
        return self._tables[table]

    def _index_rows(self, table: str, rows: List[Dict[str, Any]]) -> None:
        """Add ``rows`` to the table's indexes: one list extend per run of
        consecutive rows that share a value (a job's responses are one)."""
        for column, entries in self._indexes.get(table, {}).items():
            for value, run in groupby(rows, methodcaller("get", column)):
                if value is not None and indexable_scalar(value):
                    entries[value].extend(run)

    def _reindex(self, table: str) -> None:
        """Rebuild the table's indexes from scratch (after a delete)."""
        if table not in self._indexes:
            return
        self._indexes[table] = {
            column: defaultdict(list) for column in INDEXED_COLUMNS[table]
        }
        self._index_rows(table, self._tables[table])

    # -- writes -----------------------------------------------------------
    def insert_batches(
        self, batches: Sequence[Tuple[str, List[Dict[str, Any]]]]
    ) -> List[List[int]]:
        # stamp every batch, then land them: a write that names an unknown
        # table or holds something that is not a row fails with the
        # tables, the indexes and the id sequence untouched
        targets = [self._table(table) for table, _ in batches]
        next_id = self._next_id
        ids: List[List[int]] = []
        for _, rows in batches:
            batch_ids = range(next_id, next_id + len(rows))
            for row, row_id in zip(rows, batch_ids):
                row["_id"] = row_id
            ids.append(list(batch_ids))
            next_id = batch_ids.stop
        self._next_id = next_id
        for target, (table, rows) in zip(targets, batches):
            target.extend(rows)
            self._index_rows(table, rows)
        return ids

    def delete_rows(self, table: str, ids: Sequence[int]) -> int:
        target = self._table(table)
        doomed = set(ids)
        kept = [r for r in target if r["_id"] not in doomed]
        deleted = len(target) - len(kept)
        if deleted:
            self._tables[table] = kept
            self._reindex(table)
        return deleted

    # -- reads ------------------------------------------------------------
    def scan(
        self,
        table: str,
        where: Optional[Callable[[Dict[str, Any]], bool]] = None,
    ) -> List[Dict[str, Any]]:
        rows = self._table(table)
        if where is None:
            return [dict(r) for r in rows]
        return [dict(r) for r in rows if where(r)]

    def lookup(self, table: str, column: str, value: Any) -> List[Dict[str, Any]]:
        index = self._indexes.get(table, {}).get(column)
        if index is None:
            self.index_misses += 1
            return self.scan(table, lambda r: r.get(column) == value)
        self._check_table(table)
        self.index_hits += 1
        if value is None or not indexable_scalar(value):
            return []
        return [dict(r) for r in index.get(value, ())]

    def count(self, table: str) -> int:
        return len(self._table(table))
