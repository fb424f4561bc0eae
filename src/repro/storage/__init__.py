"""``repro.storage`` — the pluggable storage engine of the Database server.

The paper's deployment centralized a single tuned MySQL node with
stored procedures and a warm connection-thread pool (Sect. 3.1.1,
App. 10.2.1) after the per-server RDBMS design hit consistency and
contention limits.  This package models that storage layer as an
interchangeable engine behind the :class:`repro.core.database.DatabaseServer`
facade:

* :class:`StorageBackend` — the protocol every engine implements:
  inserts, scans, indexed lookups, grouped counts, deletes, all with a
  single monotonically increasing ``_id`` sequence shared across
  tables;
* :class:`MemoryBackend` — the original dict-of-lists store, now with
  secondary indexes on the hot columns (``responses.job_id``,
  ``requests.domain``, ``requests.user_id``);
* :class:`SqliteBackend` — real tables, real indexes, WAL journaling,
  on :mod:`sqlite3` (in-memory by default, file-backed on request);
  row-identical with the memory engine (pinned by
  ``tests/storage/test_backend_equivalence.py``);
* :class:`ShardedDatabase` — a router that consistent-hashes jobs by
  domain across N :class:`DatabaseServer` shards, with scatter-gather
  for the cross-shard stored procedures.

Select an engine per deployment (``PriceSheriff(world,
db_backend="sqlite", db_shards=4)``), per run
(``DeploymentConfig.db_backend``), or process-wide with the
``REPRO_DB_BACKEND`` environment variable (what the CI matrix sets to
run the whole suite over both engines).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".backend": ["INDEXED_COLUMNS", "StorageBackend", "make_backend"],
    ".memory": ["MemoryBackend"],
    ".sqlite": ["SqliteBackend"],
    ".sharding": ["HashRing", "ShardedDatabase"],
})
