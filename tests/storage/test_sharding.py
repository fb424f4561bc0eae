"""The consistent-hash shard router behind the Database surface."""

import json

import pytest

from repro.core.errors import ConnectionPoolExhausted
from repro.core.database import DatabaseServer
from repro.obs import Telemetry
from repro.storage import HashRing, ShardedDatabase


def _populate(db, n_jobs=40, n_domains=10):
    for i in range(n_jobs):
        job_id = f"job-{i:03d}"
        domain = f"store-{i % n_domains}.example"
        db.sp_record_request(job_id, f"user-{i % 7}",
                             f"http://{domain}/p-{i}", domain, float(i))
        db.sp_record_responses(
            job_id, [{"kind": "IPC", "n": v} for v in range(3)]
        )


class TestHashRing:
    def test_deterministic_and_stable(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"key-{i}" for i in range(200)]
        assert [ring.node_for(k) for k in keys] == \
            [HashRing(["a", "b", "c"]).node_for(k) for k in keys]

    def test_all_nodes_get_keys(self):
        ring = HashRing(["a", "b", "c", "d"])
        owners = {ring.node_for(f"key-{i}") for i in range(500)}
        assert owners == {"a", "b", "c", "d"}

    def test_adding_a_node_moves_few_keys(self):
        before = HashRing(["a", "b", "c"])
        after = HashRing(["a", "b", "c", "d"])
        keys = [f"key-{i}" for i in range(1000)]
        moved = sum(
            1 for k in keys if before.node_for(k) != after.node_for(k)
        )
        # consistent hashing: ~1/4 of keys move, never a full reshuffle
        assert moved < 500

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])


class TestShardedDatabase:
    def test_domain_routing_is_sticky(self):
        db = ShardedDatabase(n_shards=4)
        _populate(db)
        # every row of one domain lives on exactly one shard
        for i in range(10):
            domain = f"store-{i}.example"
            holders = [
                name for name, shard in db.shards.items()
                if shard.lookup("requests", "domain", domain)
            ]
            assert len(holders) == 1
            assert holders[0] == db.shard_for(domain)

    def test_job_queries_stay_single_shard(self):
        db = ShardedDatabase(n_shards=4)
        _populate(db)
        before = db.scatter_queries
        rows = db.sp_responses_for_job("job-007")
        assert [r["n"] for r in rows] == [0, 1, 2]
        assert db.scatter_queries == before  # routed, not scattered
        assert db.shard_for_job("job-007") == db.shard_for("store-7.example")

    def test_unknown_job_scatters(self):
        db = ShardedDatabase(n_shards=3)
        _populate(db, n_jobs=5)
        before = db.scatter_queries
        assert db.sp_responses_for_job("ghost") == []
        assert db.scatter_queries == before + 1

    def test_scatter_gather_matches_single_server(self):
        single = DatabaseServer()
        sharded = ShardedDatabase(n_shards=4)
        _populate(single)
        _populate(sharded)
        # merged reads carry the same multiset of rows (per-shard id
        # sequences differ, so compare with _id stripped)
        def strip(rows):
            return sorted(
                sorted((k, repr(v)) for k, v in r.items() if k != "_id")
                for r in rows
            )
        for column, value in (("domain", "store-3.example"), ("user_id", "user-5")):
            assert strip(sharded.lookup("requests", column, value)) \
                == strip(single.lookup("requests", column, value))
        assert sharded.count("responses") == single.count("responses")
        assert strip(sharded.scan("requests")) == strip(single.scan("requests"))
        assert strip(sharded.scan("responses")) == strip(single.scan("responses"))

    def test_occupancy_spreads_over_shards(self):
        db = ShardedDatabase(n_shards=4)
        _populate(db, n_jobs=80, n_domains=40)
        counts = db.shard_row_counts("requests")
        assert sum(counts.values()) == 80
        assert sum(1 for c in counts.values() if c > 0) >= 3

    def test_broadcast_delete(self):
        """Ids repeat across shards (each numbers its rows from 1), so a
        delete goes to the shard each row was read from and removes
        exactly those rows; the router has no ``delete_rows`` that would
        send every id to every shard."""
        db = ShardedDatabase(n_shards=3)
        _populate(db, n_jobs=6)
        doomed = {
            name: [r["_id"] for r in shard.scan("responses")][:2]
            for name, shard in db.shards.items()
        }
        deleted = sum(
            db.shards[name].delete_rows("responses", ids)
            for name, ids in doomed.items()
        )
        assert deleted == sum(len(ids) for ids in doomed.values()) >= 4
        assert db.count("responses") == 18 - deleted
        for name, ids in doomed.items():
            assert not db.shards[name].scan("responses", lambda r: r["_id"] in ids)

    def test_router_connection_pool(self):
        db = ShardedDatabase(n_shards=2, max_connections=1)
        with db.connection():
            with pytest.raises(ConnectionPoolExhausted):
                with db.connection():
                    pass
        assert db.peak_connections == 1

    def test_telemetry_gauges(self):
        telemetry = Telemetry()
        db = ShardedDatabase(n_shards=2, telemetry=telemetry)
        _populate(db, n_jobs=8, n_domains=4)
        exposition = telemetry.registry.render_exposition()
        assert "sheriff_db_shard_rows" in exposition
        assert "sheriff_db_index_hits_total" in exposition
        gauge = telemetry.registry.get("sheriff_db_shard_rows")
        total = sum(
            state[0]
            for labels, state in gauge.labels_series()
            if labels.get("table") == "requests"
        )
        assert total == 8

    def test_query_count_aggregates(self):
        db = ShardedDatabase(n_shards=3)
        _populate(db, n_jobs=5)
        before = db.query_count
        db.lookup("requests", "domain", "store-0.example")
        assert db.query_count == before + 3  # one per shard

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedDatabase(n_shards=0)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_a_jobs_first_write_pins_its_shard(self, backend):
        """Responses written before the request row stay readable once
        the request row lands, whatever shard its domain hashes to."""
        db = ShardedDatabase(n_shards=4, backend=backend)
        job_shard = db.shard_for("job-x")
        domain = next(
            f"shop-{i}.example" for i in range(100)
            if db.shard_for(f"shop-{i}.example") != job_shard
        )
        db.sp_record_responses("job-x", [{"proxy_id": "ipc-0"}])
        assert len(db.sp_responses_for_job("job-x")) == 1
        db.sp_record_request("job-x", "user-1", f"http://{domain}/p", domain, 1.0)
        db.sp_record_responses("job-x", [{"proxy_id": "ipc-1"}])
        db.sp_record_job("job-x", "user-1", f"http://{domain}/p", domain, 1.0,
                         [{"proxy_id": "ipc-2"}])  # stored already: a no-op
        db.sp_record_responses("job-x", [{"proxy_id": "ipc-2"}])
        assert db.shard_for_job("job-x") == job_shard
        rows = db.sp_responses_for_job("job-x")
        assert [r["proxy_id"] for r in rows] == ["ipc-0", "ipc-1", "ipc-2"]
        assert len(json.loads(db.sp_responses_for_job_json("job-x"))) == 3
        assert db.shard_row_counts("requests")[job_shard] == 1
        assert db.shard_row_counts("responses")[job_shard] == 3

    def test_request_first_still_routes_by_domain(self):
        db = ShardedDatabase(n_shards=4)
        db.sp_record_request("job-y", "u", "http://a.example/p", "a.example", 0.0)
        db.sp_record_responses("job-y", [{"n": 1}])
        assert db.shard_for_job("job-y") == db.shard_for("a.example")
        assert db.shard_row_counts()[db.shard_for("a.example")] == 1

    def test_sharded_on_sqlite(self):
        db = ShardedDatabase(n_shards=2, backend="sqlite")
        _populate(db, n_jobs=6)
        assert db.count("requests") == 6
        assert len(db.sp_responses_for_job("job-003")) == 3
