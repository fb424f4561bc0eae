"""The in-memory storage engine: value tuples plus secondary indexes.

This is the original Database server store with the O(n) scans fixed
and each row costing its values.  A stored row is ``(shape, values)``:
``shape`` is the column tuple (``_id`` last) that every row written
under the same columns shares, ``values`` one tuple of the row's values
with its ``_id`` last.  Strings are held once: a column whose values
are all exact ``str`` goes through one memo the engine owns, so the
country, city, currency, proxy id and price text a price check repeats
on every vantage row are one object each, not one per row.  The memo
is rebuilt from the rows left after a delete, so a deleted row's text
does not outlive it.  ``scan`` and ``lookup`` build the dicts they hand
out from the tuples.

For every column in :data:`repro.storage.backend.INDEXED_COLUMNS` the
engine keeps a per-value list of row references, appended on insert and
rebuilt on delete, so the hot ``sp_*`` queries (`responses.job_id`,
`requests.domain`, `requests.user_id`) are dict lookups instead of
full-table scans — the same shape a covering B-tree index gives the
sqlite engine.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import groupby, repeat, starmap
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.storage.backend import (
    INDEXED_COLUMNS,
    TABLES,
    Batch,
    StorageBackend,
    indexable_scalar,
    last_position,
)

__all__ = ["MemoryBackend"]

#: a stored row: its shape (the column names, ``_id`` last) and its values
Row = Tuple[Tuple[str, ...], Tuple[Any, ...]]

#: the type set of a column whose strings may be shared: exact ``str``
#: only — equal values of other types are not interchangeable
#: (``0.0 == -0.0``, ``True == 1 == 1.0``), nor are ``str`` subclasses
_ONLY_STR = {str}


class MemoryBackend(StorageBackend):
    """Value-tuple tables with per-column hash indexes."""

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._tables: Dict[str, List[Row]] = {t: [] for t in TABLES}
        #: table -> column -> value -> rows (references, insertion order)
        self._indexes: Dict[str, Dict[str, Dict[Any, List[Row]]]] = {
            table: {column: defaultdict(list) for column in columns}
            for table, columns in INDEXED_COLUMNS.items()
        }
        #: every row shape stored, held once
        self._shapes: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        #: every string a stored row shares, held once.  Not
        #: ``sys.intern``: on CPython 3.12 an interned string is immortal
        #: (``sys.getrefcount`` reads 4294967295), so a deleted row's
        #: text would outlive it
        self._strings: Dict[str, str] = {}
        #: the ``_id`` the next stored row gets (one sequence, all tables)
        self._next_id = 1

    # -- internals --------------------------------------------------------
    def _share(self, column: Sequence[Any]) -> Iterable[Any]:
        """One column's values, an all-``str`` column's through the memo
        (the first value's type turns most other columns away cheaply)."""
        if type(column[0]) is str and set(map(type, column)) == _ONLY_STR:
            return map(self._strings.setdefault, column, column)
        return column

    def _index_rows(self, table: str, rows: List[Row]) -> None:
        """Add ``rows`` to the table's indexes: one list extend per run of
        consecutive rows that share a value (a job's responses are one)."""
        indexes = self._indexes.get(table)
        if not indexes:
            return
        for shape, run in groupby(rows, itemgetter(0)):
            same_shape = list(run)
            for column, entries in indexes.items():
                at = last_position(shape, column)
                if at is None:
                    continue
                for value, same_value in groupby(same_shape, lambda row: row[1][at]):
                    if value is not None and indexable_scalar(value):
                        entries[value].extend(same_value)

    def _reindex(self, table: str) -> None:
        """Rebuild the table's indexes from scratch (after a delete)."""
        if table not in self._indexes:
            return
        self._indexes[table] = {
            column: defaultdict(list) for column in INDEXED_COLUMNS[table]
        }
        self._index_rows(table, self._tables[table])

    # -- writes -----------------------------------------------------------
    def insert_batches(self, batches: Sequence[Batch]) -> List[List[int]]:
        # check every batch, then build and land them: a write that names
        # an unknown table or holds something that is not a row fails with
        # the tables, the indexes, the shapes, the memo and the id sequence
        # untouched
        for table, columns, rows in batches:
            self._check_batch(table, columns, rows)
        next_id = self._next_id
        ids: List[List[int]] = []
        built: List[List[Row]] = []
        for _, columns, rows in batches:
            shape = (*columns, "_id")
            if rows:  # the shape table holds the shapes of stored rows only
                shape = self._shapes.setdefault(shape, shape)
            batch_ids = range(next_id, next_id + len(rows))
            values = zip(*map(self._share, zip(*rows)), batch_ids)
            built.append(list(zip(repeat(shape), values)))
            ids.append(list(batch_ids))
            next_id = batch_ids.stop
        self._next_id = next_id
        for (table, _, _), rows in zip(batches, built):
            self._tables[table].extend(rows)
            self._index_rows(table, rows)
        return ids

    def delete_rows(self, table: str, ids: Sequence[int]) -> int:
        self._check_table(table)
        target = self._tables[table]
        doomed = set(ids)
        kept = [row for row in target if row[1][-1] not in doomed]
        deleted = len(target) - len(kept)
        if deleted:
            self._tables[table] = kept
            self._reindex(table)
            # the shapes and strings of the rows left, and nothing else
            self._shapes = {}
            self._strings = {}
            for rows in self._tables.values():
                for shape, values in rows:
                    self._shapes.setdefault(shape, shape)
                    for value in values:
                        if type(value) is str:
                            self._strings.setdefault(value, value)
        return deleted

    # -- reads ------------------------------------------------------------
    def scan(
        self,
        table: str,
        where: Optional[Callable[[Dict[str, Any]], bool]] = None,
    ) -> List[Dict[str, Any]]:
        self._check_table(table)
        rows = map(dict, starmap(zip, self._tables[table]))
        return list(rows if where is None else filter(where, rows))

    def lookup(self, table: str, column: str, value: Any) -> List[Dict[str, Any]]:
        index = self._indexes.get(table, {}).get(column)
        if index is None:
            self.index_misses += 1
            return self.scan(table, lambda r: r.get(column) == value)
        self._check_table(table)
        self.index_hits += 1
        if value is None or not indexable_scalar(value):
            return []
        return list(map(dict, starmap(zip, index.get(value, ()))))

    def count(self, table: str) -> int:
        self._check_table(table)
        return len(self._tables[table])
