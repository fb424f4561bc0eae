"""A report read ships the stored result set as it is stored.

``database_rpc_handler`` answers ``sp_responses_for_job`` with the
engine's JSON array as :class:`~repro.net.protocol.RawJSON`; the codec
splices it into the reply and the client's ``decode`` is the only parse.
What a remote reader gets must be what an in-process caller gets — the
same rows, values and key order — through either transport, on either
engine, on one server or a sharded router.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import DatabaseClient, DatabaseServer, database_rpc_handler
from repro.net.protocol import RawJSON, Response, decode, encode
from repro.net.sim import NetworkError
from repro.net.socket_transport import SocketTransport
from repro.net.transport import SimTransport
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.storage import ShardedDatabase
from repro.storage.backend import compact_json

ENGINES = ("memory", "sqlite")
LAYOUTS = ("single", "sharded")
TRANSPORTS = ("sim", "socket")

#: stored values that would end the envelope early if they were spliced
#: unescaped, or that the engine has to look at twice
HOSTILE_VALUES = (
    '"]},{"ok":false',
    '"}],"ok":false,"error_kind":"remote","x":["',
    "back\\slash \\\" \\u0000",
    "line\u2028separator\u2029",
    "non-BMP \U0001f600 \U00010348",
    "nul \x00 byte",
    'mentions {"__tuple__": [1, 2]}',
)


def make_db(layout, engine, telemetry=NULL_TELEMETRY):
    if layout == "sharded":
        return ShardedDatabase(n_shards=4, backend=engine, telemetry=telemetry)
    return DatabaseServer(backend=engine, telemetry=telemetry)


def make_transport(kind, max_frame_bytes=None):
    limit = {} if max_frame_bytes is None else {"max_frame_bytes": max_frame_bytes}
    if kind == "socket":
        return SocketTransport(call_timeout=5.0, **limit)
    return SimTransport(**limit)


def vantage_rows(job, n=6):
    return [
        dict(proxy_id=f"ipc-{i:02d}", kind="IPC", country="ES", city="Madrid",
             original_text=f"EUR{i}.99", amount=i + 0.99, amount_eur=i + 0.99,
             low_confidence=bool(i % 2), error=None, time=float(job))
        for i in range(n)
    ]


def record_job(db, job, rows):
    domain = f"shop-{job % 5}.example"
    db.sp_record_request(f"job-{job}", f"user-{job}", f"http://{domain}/p", domain,
                         float(job))
    db.sp_record_responses(f"job-{job}", rows)


def with_key_order(rows):
    return [list(row.items()) for row in rows]


@pytest.fixture
def wire(request):
    """``wire(db, **transport_kwargs)`` -> a client reading ``db`` over
    the parametrised transport; every transport is closed afterwards."""
    opened = []

    def connect(db, max_frame_bytes=None):
        transport = make_transport(request.param, max_frame_bytes)
        opened.append(transport)
        transport.bind("db", database_rpc_handler(db))
        transport.register_client("m0")
        return DatabaseClient(transport, src="m0")

    yield connect
    for transport in opened:
        transport.close()


@pytest.mark.parametrize("wire", TRANSPORTS, indirect=True)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("layout", LAYOUTS)
class TestSameRowsAsInProcess:
    def test_known_and_empty_jobs(self, wire, engine, layout):
        db = make_db(layout, engine)
        for job in range(8):
            record_job(db, job, vantage_rows(job))
        client = wire(db)
        for job_id in ("job-0", "job-3", "job-7", "no-such-job"):
            got = client.sp_responses_for_job(job_id)
            assert with_key_order(got) == with_key_order(db.sp_responses_for_job(job_id))
        assert len(client.sp_responses_for_job("job-3")) == 6
        assert client.sp_responses_for_job("no-such-job") == []

    def test_rows_keep_their_stored_key_order(self, wire, engine, layout):
        db = make_db(layout, engine)
        record_job(db, 1, [{"zeta": 1, "alpha": 2, "mid": [3, {"z": 0, "a": 1}]}])
        (row,) = wire(db).sp_responses_for_job("job-1")
        assert list(row) == ["job_id", "zeta", "alpha", "mid", "_id"]
        assert list(row["mid"][1]) == ["z", "a"]

    def test_tuples_arrive_as_lists(self, wire, engine, layout):
        db = make_db(layout, engine)
        record_job(db, 2, [{"where": ("ES", "Madrid"), "nested": {"t": (1, (2, 3))}}])
        (row,) = wire(db).sp_responses_for_job("job-2")
        assert row["where"] == ["ES", "Madrid"]
        assert row["nested"] == {"t": [1, [2, 3]]}
        (stored,) = db.sp_responses_for_job("job-2")
        assert with_key_order([row]) == with_key_order(
            json.loads(compact_json([stored]))
        )

    def test_hostile_stored_values_stay_inside_the_result(self, wire, engine, layout):
        db = make_db(layout, engine)
        record_job(db, 3, [{"text": value, value: i} for i, value in enumerate(HOSTILE_VALUES)])
        client = wire(db)
        got = client.sp_responses_for_job("job-3")
        assert with_key_order(got) == with_key_order(db.sp_responses_for_job("job-3"))
        assert [row["text"] for row in got] == list(HOSTILE_VALUES)
        # the client is still in step with the endpoint afterwards
        assert client.sp_responses_for_job("no-such-job") == []


@pytest.mark.parametrize("wire", TRANSPORTS, indirect=True)
@pytest.mark.parametrize("engine", ENGINES)
class TestShardedScatter:
    def test_a_job_the_router_does_not_know_is_gathered_from_every_shard(self, wire, engine):
        db = ShardedDatabase(n_shards=4, backend=engine)
        for job in range(6):
            record_job(db, job, vantage_rows(job, 2))
        # rows of one job on two shards, written past the router (as a
        # restarted router over existing shards would find them)
        names = db.shard_names
        db.shards[names[1]].sp_record_responses("orphan", [{"n": 1}, {"n": 2}])
        db.shards[names[3]].sp_record_responses("orphan", [{"n": 3}])
        client = wire(db)
        before = db.scatter_queries
        got = client.sp_responses_for_job("orphan")
        assert db.scatter_queries == before + 1
        assert [row["n"] for row in got] == [1, 2, 3]
        assert with_key_order(got) == with_key_order(db.sp_responses_for_job("orphan"))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("layout", LAYOUTS)
class TestAccountingTwins:
    """The JSON read costs what the list read costs, by every counter."""

    @staticmethod
    def counters(layout, engine, read):
        telemetry = Telemetry()
        db = make_db(layout, engine, telemetry)
        for job in range(5):
            record_job(db, job, vantage_rows(job, 3))
        hits = telemetry.registry.get("sheriff_db_index_hits_total")
        before = (db.query_count, hits.total, getattr(db, "scatter_queries", 0))
        for job_id in ("job-1", "job-4", "ghost"):
            read(db, job_id)
        after = (db.query_count, hits.total, getattr(db, "scatter_queries", 0))
        return [b - a for a, b in zip(before, after)]

    def test_same_queries_index_hits_and_scatters(self, engine, layout):
        as_list = self.counters(layout, engine,
                                lambda db, job: db.sp_responses_for_job(job))
        as_json = self.counters(layout, engine,
                                lambda db, job: db.sp_responses_for_job_json(job))
        assert as_json == as_list

    def test_json_is_the_wire_form_of_the_list(self, engine, layout):
        db = make_db(layout, engine)
        for job in range(5):
            record_job(db, job, vantage_rows(job, 3))
        for job_id in ("job-1", "job-4", "ghost"):
            assert db.sp_responses_for_job_json(job_id) == compact_json(
                db.sp_responses_for_job(job_id)
            )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_wire_read_is_never_decoded_server_side(monkeypatch, engine, layout):
    """Handler and encode together make zero ``json.loads`` calls for a
    price check's rows; the client's ``decode`` makes the one parse."""
    db = make_db(layout, engine)
    record_job(db, 1, vantage_rows(1, 36))
    handle = database_rpc_handler(db)
    parses = []
    real = json.decoder.JSONDecoder.decode

    def counting(self, text, *args, **kwargs):
        parses.append(len(text))
        return real(self, text, *args, **kwargs)

    monkeypatch.setattr(json.decoder.JSONDecoder, "decode", counting)
    result = handle("sp_responses_for_job", {"job_id": "job-1"})
    body = encode(Response(9, ok=True, result=result))
    assert isinstance(result, RawJSON)
    assert parses == []
    rows = decode(body).result
    assert len(parses) == 1 and len(rows) == 36


@pytest.mark.parametrize("wire", TRANSPORTS, indirect=True)
@pytest.mark.parametrize("engine", ENGINES)
def test_an_oversized_result_set_is_a_network_error(wire, engine):
    """Above the frame limit the reply becomes a ``network`` error
    envelope on either transport, and the endpoint keeps serving."""
    db = DatabaseServer(backend=engine)
    record_job(db, 1, vantage_rows(1, 36))
    client = wire(db, max_frame_bytes=2048)
    with pytest.raises(NetworkError, match="exceeds"):
        client.sp_responses_for_job("job-1")
    assert client.sp_responses_for_job("no-such-job") == []


class TestSplicedEnvelope:
    def test_envelope_keys_stay_sorted_around_the_result(self):
        body = encode(Response(7, ok=True, result=RawJSON('[{"b":1,"a":[2]}]')))
        assert body == b'{"id":7,"ok":true,"result":[{"b":1,"a":[2]}],"type":"response","v":1}'
        assert decode(body) == Response(7, ok=True, result=[{"b": 1, "a": [2]}])

    def test_raw_json_outside_an_ok_result_is_not_representable(self):
        from repro.net.protocol import ProtocolError, Request

        with pytest.raises(ProtocolError):
            encode(Request(1, "a", "db", "m", {"rows": RawJSON("[]")}))

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False) | st.text(),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=20,
    )

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.dictionaries(st.text(max_size=8), json_values, max_size=6),
                         max_size=5))
    def test_spliced_equals_encoded(self, rows):
        text = compact_json(rows)
        spliced = encode(Response(3, ok=True, result=RawJSON(text)))
        encoded = encode(Response(3, ok=True, result=json.loads(text)))
        assert decode(spliced) == decode(encoded)
        assert len(spliced) == len(encoded)
