"""``repro.storage`` — the pluggable storage engine of the Database server.

The paper's deployment centralized a single tuned MySQL node with
stored procedures and a warm connection-thread pool (Sect. 3.1.1,
App. 10.2.1) after the per-server RDBMS design hit consistency and
contention limits.  This package models that storage layer as an
interchangeable engine behind the :class:`repro.core.database.DatabaseServer`
facade:

* :class:`StorageBackend` — the protocol every engine implements:
  column-wise batch inserts, scans, indexed lookups, counts, deletes,
  all with a single monotonically increasing ``_id`` sequence shared
  across tables;
* :class:`SqliteBackend` — the production engine: real tables, real
  indexes, WAL journaling, on :mod:`sqlite3` (in-memory by default,
  file-backed on request);
* :class:`MemoryBackend` — each row one value tuple under a shared
  column tuple, repeated strings held once, with secondary indexes on
  the hot columns (``responses.job_id``, ``requests.domain``,
  ``requests.user_id``), kept as the sqlite
  engine's equivalence oracle: the two are row-identical (pinned by
  ``tests/storage/test_backend_equivalence.py``);
* :class:`ShardedDatabase` — a router that consistent-hashes jobs by
  domain across N :class:`DatabaseServer` shards, with scatter-gather
  for the cross-shard stored procedures.  No deployment uses it; the
  benchmark's ``report_rw`` workload does.

A deployment runs one Database server on sqlite; ``db_backend="memory"``
(``PriceSheriff(world, db_backend="memory")``) selects the oracle.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".backend": ["INDEXED_COLUMNS", "StorageBackend", "make_backend"],
    ".memory": ["MemoryBackend"],
    ".sqlite": ["SqliteBackend"],
    ".sharding": ["HashRing", "ShardedDatabase"],
})
