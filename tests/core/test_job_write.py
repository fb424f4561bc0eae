"""One write per price check: ``sp_record_job``.

A Measurement server lands a check's request row and its response rows
with one stored-procedure call — one transport round trip, one engine
transaction — and what it stores is what ``sp_record_request`` followed
by ``sp_record_responses`` stored: the same rows, key order and ``_id``\\ s.
The write is keyed on ``job_id``, so a call the transport sends again
after its reply was lost stores nothing twice, and a write the engine
refuses stores nothing at all.
"""

import pytest

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.database import DatabaseClient, DatabaseServer, database_rpc_handler
from repro.core.measurement import MeasurementServer
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.net.socket_transport import SocketTransport
from repro.net.transport import SimTransport
from repro.obs import Telemetry
from repro.storage import ShardedDatabase
from repro.workloads.deployment import DeploymentConfig, LiveDeployment
from repro.workloads.stores import build_named_stores, uniform_store_specs

ENGINES = ("memory", "sqlite")
LAYOUTS = ("single", "sharded")
ROWS_PER_JOB = 36
DOMAIN = "shop.example"
URL = f"http://{DOMAIN}/p/1"


def make_db(layout, engine):
    if layout == "sharded":
        return ShardedDatabase(n_shards=4, backend=engine)
    return DatabaseServer(backend=engine)


def job_rows(n=ROWS_PER_JOB):
    return [
        {"proxy_id": f"ipc-{i:02d}", "kind": "IPC", "amount": 10.0 + i,
         "currency": "EUR", "error": None, "time": 5.0}
        for i in range(n)
    ]


def record_job(db, job_id="job-1", rows=None):
    return db.sp_record_job(job_id, "user-1", URL, DOMAIN, 5.0,
                            job_rows() if rows is None else rows)


def with_key_order(rows):
    return [list(row.items()) for row in rows]


@pytest.mark.parametrize("transport", ["sim", "socket"])
def test_a_persisted_check_is_one_transport_call(transport):
    telemetry = Telemetry()
    world = SheriffWorld.create(seed=2017)
    specs = uniform_store_specs(2, seed=2020)
    stores = build_named_stores(world, specs)
    sheriff = PriceSheriff(world, n_measurement_servers=1,
                           ipc_sites=DEFAULT_IPC_SITES[:3], transport=transport,
                           telemetry=telemetry)
    addon = sheriff.install_addon(world.make_browser("ES"))
    urls = [stores[spec.domain].product_url(product.product_id)
            for spec in specs for product in stores[spec.domain].catalog.products[:2]]
    try:
        for url in urls:
            addon.check_price(url)
    finally:
        sheriff.shutdown()  # joins the socket's serving threads: their counts are in
    registry = telemetry.registry
    calls = registry.get("sheriff_transport_call_seconds")
    assert dict(calls.series())[(transport, "sp_record_job")].count == len(urls)
    assert calls.total_count() == len(urls)
    # a socket call's request and its reply are both sent in this process
    frames_per_call = {"sim": 1, "socket": 2}[transport]
    frames = registry.get("sheriff_transport_frames_total")
    assert frames.value(transport=transport, direction="out") == frames_per_call * len(urls)
    assert sheriff.db.query_count == len(urls)
    assert sheriff.db.batched_writes == len(urls)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_live_run_stores_what_the_two_procedures_stored(monkeypatch, engine):
    """The reference is the two-call write, each call over a transport
    as the Measurement server made it: request, then the responses."""
    persisted = []
    persist = MeasurementServer._persist

    def spy(server, job, result):
        persisted.append((job, result, server.clock.now))
        persist(server, job, result)

    monkeypatch.setattr(MeasurementServer, "_persist", spy)
    config = DeploymentConfig(
        n_users=12, n_requests=10, n_extra_pd_stores=2, n_uniform_stores=3,
        n_content_domains=20, spotlight_checks=0, ipc_sites=DEFAULT_IPC_SITES[:3],
        db_backend=engine,
    )
    deployment = LiveDeployment(config)
    deployment.run()
    assert len(persisted) >= 5

    reference = DatabaseServer(backend=engine)
    transport = SimTransport()
    transport.bind("db", database_rpc_handler(reference))
    transport.register_client("m0")
    client = DatabaseClient(transport, src="m0")
    for job, result, now in persisted:
        client.sp_record_request(job_id=job.job_id, user_id=job.initiator_peer_id,
                                 url=job.url, domain=result.domain, time=now)
        client.sp_record_responses(job.job_id, [
            dict(proxy_id=row.proxy_id, kind=row.kind, country=row.country,
                 region=row.region, city=row.city, original_text=row.original_text,
                 amount=row.detected_amount, currency=row.detected_currency,
                 amount_eur=row.amount_eur, low_confidence=row.low_confidence,
                 used_doppelganger=row.used_doppelganger, error=row.error, time=now)
            for row in result.rows
        ])
    db = deployment.sheriff.db
    assert with_key_order(db.scan("requests")) == with_key_order(reference.scan("requests"))
    assert with_key_order(db.scan("responses")) == with_key_order(reference.scan("responses"))
    assert db.last_write_time == reference.last_write_time
    deployment.sheriff.shutdown()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("layout", LAYOUTS)
class TestReplayedJobWrite:
    """A write sent twice (``SocketTransport`` resends a call whose reply
    was lost) stores its rows once and answers both calls alike."""

    @staticmethod
    def assert_stored_once(db, first, again):
        assert again == first
        assert first == list(range(1, 2 + ROWS_PER_JOB))  # the request's id first
        assert [row["job_id"] for row in db.scan("requests")] == ["job-1"]
        assert len(db.sp_responses_for_job("job-1")) == ROWS_PER_JOB
        assert db.count("responses") == ROWS_PER_JOB

    def test_in_process(self, engine, layout):
        db = make_db(layout, engine)
        first = record_job(db)
        again = record_job(db)
        self.assert_stored_once(db, first, again)
        assert db.batched_writes == 1

    def test_over_the_wire(self, engine, layout):
        db = make_db(layout, engine)
        transport = SimTransport()
        transport.bind("db", database_rpc_handler(db))
        transport.register_client("m0")
        client = DatabaseClient(transport, src="m0")
        self.assert_stored_once(db, record_job(client), record_job(client))

    def test_the_next_job_takes_the_next_ids(self, engine, layout):
        db = make_db(layout, engine)
        record_job(db)
        record_job(db)
        assert record_job(db, "job-2", job_rows(2)) == [38, 39, 40]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize(
    "engine, bad_row, error",
    [
        ("memory", None, TypeError),
        ("sqlite", None, TypeError),
        # the row's own job_id wins over the stamp: the request and 20
        # rows are in the transaction when the statement refuses it
        ("sqlite", {"proxy_id": "ipc-x", "job_id": 2**70}, OverflowError),
    ],
    ids=["memory-not-a-row", "sqlite-not-a-row", "sqlite-statement-refuses"],
)
def test_a_refused_job_write_stores_nothing_and_consumes_no_id(layout, engine,
                                                                bad_row, error):
    db = make_db(layout, engine)
    rows = job_rows()
    rows.insert(20, bad_row)
    with pytest.raises(error):
        record_job(db, rows=rows)
    assert db.scan("requests") == []
    assert db.scan("responses") == []
    assert db.batched_writes == 0
    shards = db.shards.values() if layout == "sharded" else (db,)
    assert {shard.last_write_time for shard in shards} == {None}
    assert record_job(db) == list(range(1, 2 + ROWS_PER_JOB))


def test_a_socket_client_writes_a_job_in_one_call():
    db = DatabaseServer()
    transport = SocketTransport(call_timeout=5.0)
    try:
        transport.bind("db", database_rpc_handler(db))
        transport.register_client("m0")
        ids = record_job(DatabaseClient(transport, src="m0"))
    finally:
        transport.close()
    assert ids == list(range(1, 2 + ROWS_PER_JOB))
    assert db.query_count == 1
    (request,) = db.scan("requests")
    assert list(request) == ["job_id", "user_id", "url", "domain", "time", "_id"]
    assert list(db.sp_responses_for_job("job-1")[0]) == [
        "job_id", *sorted(job_rows()[0]), "_id",
    ]
