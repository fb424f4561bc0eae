"""Tests for the shared Database server."""

import sqlite3

import pytest

from repro.core.database import DatabaseServer


class TestTables:
    def test_insert_and_scan(self):
        db = DatabaseServer()
        db.insert("requests", {"job_id": "j1", "domain": "a.com"})
        rows = db.scan("requests")
        assert len(rows) == 1
        assert rows[0]["job_id"] == "j1"
        assert "_id" in rows[0]

    def test_scan_with_predicate(self):
        db = DatabaseServer()
        db.insert("responses", {"job_id": "j1"})
        db.insert("responses", {"job_id": "j2"})
        assert len(db.scan("responses", lambda r: r["job_id"] == "j2")) == 1

    def test_scan_returns_copies(self):
        db = DatabaseServer()
        db.insert("requests", {"job_id": "j1"})
        db.scan("requests")[0]["job_id"] = "tampered"
        assert db.scan("requests")[0]["job_id"] == "j1"

    def test_unknown_table(self):
        db = DatabaseServer()
        with pytest.raises(KeyError):
            db.insert("nope", {})

    def test_ids_monotonic(self):
        db = DatabaseServer()
        a = db.insert("requests", {})
        b = db.insert("requests", {})
        assert b > a

    def test_count(self):
        db = DatabaseServer()
        db.insert("users", {"id": "u1"})
        assert db.count("users") == 1


class TestStoredProcedures:
    def test_record_and_fetch_responses(self):
        db = DatabaseServer()
        db.sp_record_job("j1", "user-1", "http://a.com/p", "a.com", 0.0,
                         [{"proxy_id": "ipc-0", "amount_eur": 10.0}])
        db.sp_record_job("j2", "user-1", "http://a.com/p", "a.com", 0.0,
                         [{"proxy_id": "ipc-0", "amount_eur": 12.0}])
        assert [r["amount_eur"] for r in db.sp_responses_for_job("j1")] == [10.0]

    def test_requests_by_domain(self):
        db = DatabaseServer()
        for i in range(3):
            db.sp_record_request(f"j{i}", "u", "http://a.com/p", "a.com", 0.0)
        db.sp_record_request("j9", "u", "http://b.com/p", "b.com", 0.0)
        hits = db.backend.index_hits
        assert [r["job_id"] for r in db.lookup("requests", "domain", "a.com")] \
            == ["j0", "j1", "j2"]
        assert [r["job_id"] for r in db.lookup("requests", "domain", "b.com")] == ["j9"]
        assert db.backend.index_hits == hits + 2

    def test_requests_by_user(self):
        db = DatabaseServer()
        db.sp_record_request("j1", "u1", "http://a.com/p", "a.com", 0.0)
        db.sp_record_request("j2", "u1", "http://a.com/p", "a.com", 0.0)
        db.sp_record_request("j3", "u2", "http://a.com/p", "a.com", 0.0)
        hits = db.backend.index_hits
        assert [r["job_id"] for r in db.lookup("requests", "user_id", "u1")] == ["j1", "j2"]
        assert [r["job_id"] for r in db.lookup("requests", "user_id", "u2")] == ["j3"]
        assert db.backend.index_hits == hits + 2


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestFailedWrites:
    """A refused write leaves ``last_write_time`` and
    ``batched_writes`` where they were — otherwise the staleness probe
    sees a shard whose every write fails as fresh."""

    def test_unknown_table(self, backend):
        db = DatabaseServer(backend=backend)
        db.insert("requests", {"time": 10.0})
        with pytest.raises(TypeError):
            db.sp_record_responses("j1", [{"time": 50.0}, "not a row"])
        with pytest.raises(KeyError):
            db.insert("nosuch", {"time": 60.0})
        assert db.last_write_time == 10.0
        assert db.batched_writes == 0
        assert db.query_count == 3  # a refused write is still a round trip

    def test_one_max_per_stored_batch(self, backend):
        db = DatabaseServer(backend=backend)
        db.sp_record_responses("j1", [{"time": 3.0}, {"time": 7}, {"time": "x"}, {}])
        assert db.last_write_time == 7.0
        assert db.batched_writes == 1
        db.sp_record_responses("j2", [{"time": 5.0}])
        assert db.last_write_time == 7.0

    def test_sharded_staleness_view(self, backend):
        from repro.storage import ShardedDatabase

        db = ShardedDatabase(n_shards=2, backend=backend)
        with pytest.raises(TypeError):
            db.sp_record_job("j1", "u", "http://a.example/p", "a.example", 50.0,
                             [{"time": 50.0}, "not a row"])
        assert [shard.last_write_time for shard in db.shards.values()] == [None, None]
        assert db.batched_writes == 0


def test_sqlite_batch_with_an_unencodable_value_moves_nothing():
    db = DatabaseServer(backend="sqlite")
    with pytest.raises(TypeError):
        db.sp_record_job("j1", "u", "http://a.example/p", "a.example", 70.0,
                         [{"time": 70.0}, {"time": 71.0, "bad": object()}])
    assert db.count("requests") == db.count("responses") == 0
    assert db.last_write_time is None
    assert db.batched_writes == 0


def test_sheriff_shutdown_closes_the_database_engine():
    from repro.core.sheriff import PriceSheriff, SheriffWorld

    sheriff = PriceSheriff(SheriffWorld.create(seed=1), whitelist_domains=[])
    sheriff.db.insert("requests", {"job_id": "j1"})
    sheriff.shutdown()
    with pytest.raises(sqlite3.ProgrammingError):
        sheriff.db.backend.count("requests")


class TestQueryAccounting:
    def test_query_count_tracks_activity(self):
        db = DatabaseServer()
        before = db.query_count
        db.insert("requests", {})
        db.scan("requests")
        assert db.query_count == before + 2


class TestRowBatchOnTheWire:
    """``sp_record_responses`` and ``sp_record_job`` ship their batch
    column-wise; the rows the server builds from what arrives must be
    the rows the plain list would have given — values, key order and
    all.  (Reads cross as the stored text:
    ``tests/core/test_result_set_wire.py``.)"""

    @staticmethod
    def through_codec(payload):
        from repro.net.protocol import Request, decode, encode

        return decode(encode(Request(1, "a", "db", "m", payload))).payload

    def rows(self, n=3):
        return [
            {"proxy_id": f"ipc-{i}", "amount": i / 4, "error": None,
             "low_confidence": bool(i % 2), "where": ("ES", "Madrid")}
            for i in range(n)
        ]

    def test_uniform_rows_cross_column_wise_and_come_back_identical(self):
        from repro.core.database import _pack_rows, _response_rows

        packed = _pack_rows(self.rows())
        assert packed["cols"] == sorted(self.rows()[0])
        assert len(packed["rows"]) == 3
        assert _pack_rows(packed) is packed  # already column-wise
        plain = _response_rows("j1", self.through_codec(self.rows()))
        rebuilt = _response_rows("j1", self.through_codec(packed))
        assert rebuilt == plain
        assert [list(row) for row in rebuilt] == [list(row) for row in plain]
        assert list(rebuilt[0]) == ["job_id", *sorted(self.rows()[0])]

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [{"only": 1}, {"only": 2}],
            [{"a": 1, "b": 2}, {"a": 1}],
            [{"a": 1, "b": 2}, {"a": 1, "c": 2}],
            [{"a": 1, 2: "int key"}],
        ],
        ids=["empty", "one-column", "ragged", "other-keys", "non-string-key"],
    )
    def test_anything_else_stays_a_plain_list(self, rows):
        from repro.core.database import _pack_rows, _response_rows

        assert _pack_rows(rows) == rows
        assert _response_rows("j1", rows) == [{"job_id": "j1", **row} for row in rows]

    def test_client_and_handler_agree_through_a_transport(self):
        from repro.core.database import DatabaseClient, database_rpc_handler
        from repro.net.transport import SimTransport

        server = DatabaseServer()
        transport = SimTransport()
        transport.bind("db", database_rpc_handler(server))
        transport.register_client("m0")
        client = DatabaseClient(transport, src="m0")
        written = [
            dict(proxy_id=f"ipc-{i}", kind="IPC", amount_eur=1.5 * i, error=None)
            for i in range(4)
        ]
        ids = client.sp_record_responses("j1", written)
        assert len(ids) == 4
        assert client.sp_responses_for_job("j1") == self.through_codec(
            server.sp_responses_for_job("j1")
        )
        assert client.sp_responses_for_job("no-such-job") == []
