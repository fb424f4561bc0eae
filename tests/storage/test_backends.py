"""Unit tests for the storage engines behind the Database server."""


import pytest

from repro.core.errors import UnknownTable
from repro.storage import (
    INDEXED_COLUMNS,
    MemoryBackend,
    SqliteBackend,
    StorageBackend,
    make_backend,
)
from repro.storage.backend import BACKEND_ENV_VAR, TABLES


@pytest.fixture(params=["memory", "sqlite"])
def backend(request):
    b = make_backend(request.param)
    yield b
    b.close()


class TestBackendContract:
    def test_ids_are_one_shared_sequence(self, backend):
        first = backend.insert("requests", {"domain": "a.example"})
        second = backend.insert("responses", {"job_id": "j"})
        third = backend.insert("users", {"user_id": "u"})
        assert [first, second, third] == [1, 2, 3]

    def test_scan_returns_copies_in_insertion_order(self, backend):
        backend.insert("responses", {"job_id": "j", "n": 1})
        backend.insert("responses", {"job_id": "j", "n": 2})
        rows = backend.scan("responses")
        assert [r["n"] for r in rows] == [1, 2]
        rows[0]["n"] = 99
        assert backend.scan("responses")[0]["n"] == 1

    def test_scan_with_predicate(self, backend):
        backend.insert_many(
            "requests", [{"domain": d} for d in ("a", "b", "a")]
        )
        assert len(backend.scan("requests", lambda r: r["domain"] == "a")) == 2

    def test_lookup_uses_index_on_declared_columns(self, backend):
        backend.insert_many(
            "responses",
            [{"job_id": f"j{i % 3}", "n": i} for i in range(9)],
        )
        before = backend.index_hits
        rows = backend.lookup("responses", "job_id", "j1")
        assert backend.index_hits == before + 1
        assert [r["n"] for r in rows] == [1, 4, 7]

    def test_lookup_falls_back_to_scan_off_index(self, backend):
        backend.insert("responses", {"job_id": "j", "kind": "IPC"})
        before = backend.index_misses
        assert backend.lookup("responses", "kind", "IPC")
        assert backend.index_misses == before + 1

    def test_rows_missing_indexed_column_invisible_to_lookup(self, backend):
        backend.insert("responses", {"kind": "You"})  # no job_id
        backend.insert("responses", {"job_id": None, "kind": "PPC"})
        assert backend.lookup("responses", "job_id", None) == []
        assert len(backend.scan("responses")) == 2

    def test_non_scalar_indexed_value_scan_only(self, backend):
        backend.insert("responses", {"job_id": ("not", "scalar")})
        assert backend.lookup("responses", "job_id", ("not", "scalar")) == []
        assert backend.scan("responses")[0]["job_id"] == ("not", "scalar")

    def test_delete_rows(self, backend):
        ids = backend.insert_many(
            "responses", [{"job_id": "j", "n": i} for i in range(4)]
        )
        assert backend.delete_rows("responses", ids[1:3]) == 2
        assert backend.delete_rows("responses", [10_000]) == 0
        assert [r["n"] for r in backend.lookup("responses", "job_id", "j")] \
            == [0, 3]
        assert backend.count("responses") == 2

    def test_unknown_table_raises(self, backend):
        with pytest.raises(UnknownTable):
            backend.insert("nope", {})
        with pytest.raises(UnknownTable):
            backend.scan("nope")
        with pytest.raises(UnknownTable):
            backend.count("nope")

    def test_tuple_round_trip(self, backend):
        backend.insert(
            "responses",
            {"job_id": "j", "price": (12.5, "EUR"), "path": ("a", ("b", "c"))},
        )
        row = backend.lookup("responses", "job_id", "j")[0]
        assert row["price"] == (12.5, "EUR")
        assert row["path"] == ("a", ("b", "c"))
        assert isinstance(row["price"], tuple)


class TestAtomicBatch:
    """``insert_many`` stores the whole batch or nothing: a batch that
    fails leaves the table, the indexes and the id sequence exactly as
    they were, so the caller's retry cannot duplicate its first rows."""

    GOOD = [{"job_id": "j", "n": 1}, {"job_id": "j", "n": 2}]

    def _fails_whole(self, backend, bad_row, error):
        backend.insert("responses", {"job_id": "j", "n": 0})
        before = backend.scan("responses")
        with pytest.raises(error):
            backend.insert_many("responses", self.GOOD + [bad_row])
        # an unrelated write commits whatever the failed batch left open
        assert backend.insert("requests", {"domain": "a.example"}) == 2
        assert backend.count("responses") == 1
        assert backend.scan("responses") == before
        assert backend.lookup("responses", "job_id", "j") == before
        assert [r["_id"] for r in backend.lookup("requests", "domain", "a.example")] == [2]
        # the retry of the good rows stores each once, on the next ids
        assert backend.insert_many("responses", self.GOOD) == [3, 4]
        assert [r["n"] for r in backend.lookup("responses", "job_id", "j")] \
            == [0, 1, 2]
        assert [r["_id"] for r in backend.scan("responses")] == [1, 3, 4]

    def test_row_that_cannot_be_copied(self, backend):
        self._fails_whole(backend, None, TypeError)

    def test_row_that_cannot_be_encoded(self):
        backend = SqliteBackend()
        self._fails_whole(backend, {"bad": {1, 2}}, TypeError)
        backend.close()

    def test_row_the_statement_refuses(self):
        """Fails as the batch's ``INSERT`` binds its parameters, inside
        the write's transaction: it is rolled back, not left for the
        next commit."""
        backend = SqliteBackend()
        self._fails_whole(backend, {"job_id": 2**70}, OverflowError)
        backend.close()

    def _write_fails_whole(self, backend, bad_batch, error):
        """``insert_batches`` over two tables: the first batch's rows are
        stamped (on sqlite, inserted) before the second one fails."""
        backend.insert("requests", {"job_id": "j0", "domain": "a.example"})
        before = backend.scan("requests")
        with pytest.raises(error):
            backend.insert_batches([
                ("requests", [{"job_id": "j1", "domain": "b.example"}]),
                ("responses", bad_batch),
            ])
        assert backend.scan("requests") == before
        assert backend.count("responses") == 0
        assert backend.lookup("requests", "job_id", "j1") == []
        assert [r["_id"] for r in backend.lookup("requests", "domain", "a.example")] == [1]
        assert backend.lookup("requests", "domain", "b.example") == []
        assert backend.insert_batches([
            ("requests", [{"job_id": "j1"}]),
            ("responses", [{"job_id": "j1"}, {"job_id": "j1"}]),
        ]) == [[2], [3, 4]]
        assert [r["_id"] for r in backend.lookup("responses", "job_id", "j1")] == [3, 4]

    def test_write_with_something_that_is_not_a_row(self, backend):
        self._write_fails_whole(backend, [{"job_id": "j1"}, "not a row"], TypeError)

    def test_write_the_statement_refuses_part_way(self):
        backend = SqliteBackend()
        self._write_fails_whole(backend, [{"job_id": "j1"}, {"job_id": 2**70}],
                                OverflowError)
        backend.close()

    def test_empty_batch(self, backend):
        assert backend.insert_many("responses", []) == []
        assert backend.insert("responses", {"job_id": "j"}) == 1
        with pytest.raises(UnknownTable):
            backend.insert_many("nope", [])


class TestSqliteEngine:
    def test_real_tables_and_indexes_exist(self):
        b = SqliteBackend()
        tables = {
            name
            for (name,) in b._conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        assert set(TABLES) <= tables
        indexes = {
            name
            for (name,) in b._conn.execute(
                "SELECT name FROM sqlite_master WHERE type='index'"
            )
        }
        for table, columns in INDEXED_COLUMNS.items():
            for column in columns:
                assert f"idx_{table}_{column}" in indexes
        b.close()

    def test_lookup_is_an_index_seek(self):
        b = SqliteBackend()
        b.insert_many("responses", [{"job_id": f"j{i}"} for i in range(50)])
        (plan,) = b._conn.execute(
            "EXPLAIN QUERY PLAN SELECT data FROM responses WHERE job_id = ?",
            ("j7",),
        ).fetchall()
        assert "idx_responses_job_id" in plan[-1]
        b.close()

    def test_file_backed_runs_wal(self, tmp_path):
        b = SqliteBackend(path=str(tmp_path / "sheriff.db"))
        (mode,) = b._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode.lower() == "wal"
        b.insert("requests", {"domain": "a.example"})
        b.close()
        reopened = SqliteBackend(path=str(tmp_path / "sheriff.db"))
        assert reopened.count("requests") == 1
        reopened.close()

    def test_reopened_file_continues_the_id_sequence(self, tmp_path):
        """One sequence over all tables, seeded from the largest stored
        ``_id`` — not restarted at 1, which collides in the same table
        and silently reuses a live id in another."""
        path = str(tmp_path / "sheriff.db")
        b = SqliteBackend(path=path)
        assert b.insert("requests", {"domain": "a.example"}) == 1
        assert b.insert_many("responses", [{"job_id": "j"}] * 2) == [2, 3]
        b.close()
        reopened = SqliteBackend(path=path)
        assert reopened.insert("users", {"user_id": "u"}) == 4
        assert reopened.insert("requests", {"domain": "b.example"}) == 5
        assert reopened.insert_many("responses", [{"job_id": "j"}] * 2) == [6, 7]
        assert [r["_id"] for r in reopened.lookup("responses", "job_id", "j")] \
            == [2, 3, 6, 7]
        reopened.close()


    def test_a_file_from_before_the_job_index_gets_it_on_opening(self, tmp_path):
        """A ``requests`` table without the ``job_id`` column (the schema
        before job writes were keyed) is given it, filled from the rows."""
        import sqlite3

        path = str(tmp_path / "old.db")
        old = sqlite3.connect(path)
        old.execute("CREATE TABLE requests (_id INTEGER PRIMARY KEY, domain, user_id, "
                    "data TEXT NOT NULL)")
        for row_id, job_id in ((1, '"j1"'), (2, "7"), (3, "true"), (4, '["j", 4]'),
                               (5, "null")):
            old.execute("INSERT INTO requests VALUES (?, 'a.example', 'u', ?)",
                        (row_id, f'{{"job_id":{job_id},"domain":"a.example","_id":{row_id}}}'))
        old.commit()
        old.close()
        b = SqliteBackend(path=path)
        assert [r["_id"] for r in b.lookup("requests", "job_id", "j1")] == [1]
        assert [r["_id"] for r in b.lookup("requests", "job_id", 7)] == [2]
        assert [r["_id"] for r in b.lookup("requests", "job_id", True)] == [3]
        assert [r["_id"] for r in b.lookup("requests", "job_id", 1)] == [3]
        assert b.lookup("requests", "job_id", None) == []
        assert b.insert("requests", {"job_id": "j2"}) == 6
        assert [r["_id"] for r in b.lookup("requests", "job_id", "j2")] == [6]
        b.close()


class TestMakeBackend:
    def test_names(self):
        assert isinstance(make_backend("memory"), MemoryBackend)
        assert isinstance(make_backend("sqlite"), SqliteBackend)
        assert isinstance(make_backend("SQLite3"), SqliteBackend)

    def test_instance_passthrough(self):
        engine = MemoryBackend()
        assert make_backend(engine) is engine

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_backend("oracle")

    def test_env_var_selects_engine(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "sqlite")
        assert isinstance(make_backend(), SqliteBackend)
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert isinstance(make_backend(), MemoryBackend)

    def test_subclass_contract(self):
        assert issubclass(MemoryBackend, StorageBackend)
        assert issubclass(SqliteBackend, StorageBackend)
