"""The row-identity contract: both engines, byte-identical results.

A randomized, seeded insert/scan/delete/``sp_*`` workload is applied to
a memory-backed and a sqlite-backed Database server in lockstep; every
operation must return the same value from both, and the final state
(every table's rows, the ``_id`` sequence, ``query_count``) must match
exactly.  This is the contract that makes the memory engine the sqlite
engine's equivalence oracle: a deployment runs on sqlite, and CI's
"Storage engines" step runs this suite to hold the two together.

The hypothesis property below it pins the same contract value by value
(what the sqlite engine's result-set decode must not bend), and the
format-stability tests pin the stored ``data`` text itself, so database
files written before a change to the engine stay readable after it.
"""

import json
import random
import sqlite3
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from repro import _jsontext
from repro.core.database import DatabaseServer
from repro.net import protocol
from repro.net.protocol import ProtocolError
from repro.storage import MemoryBackend, SqliteBackend
from repro.storage import sqlite as sqlite_engine
from repro.storage.backend import TABLES, compact_json


def _random_value(rng, depth=0):
    kind = rng.randrange(8 if depth < 2 else 6)
    if kind == 0:
        return rng.randrange(1000)
    if kind == 1:
        return round(rng.random() * 100, 4)
    if kind == 2:
        return f"s-{rng.randrange(50)}"
    if kind == 3:
        return rng.random()  # full-precision float
    if kind == 4:
        return None
    if kind == 5:
        return rng.choice([True, False])
    if kind == 6:
        return tuple(_random_value(rng, depth + 1)
                     for _ in range(rng.randrange(3)))
    return [_random_value(rng, depth + 1) for _ in range(rng.randrange(3))]


def _random_row(rng):
    row = {f"f{k}": _random_value(rng) for k in range(rng.randrange(1, 5))}
    if rng.random() < 0.7:
        row["job_id"] = f"job-{rng.randrange(20)}"
    if rng.random() < 0.7:
        row["domain"] = f"store-{rng.randrange(8)}.example"
    if rng.random() < 0.5:
        row["user_id"] = f"user-{rng.randrange(12)}"
    return row


def _step(db, rng, live_ids):
    """One workload operation; returns a comparable result."""
    op = rng.randrange(10)
    table = rng.choice(TABLES)
    if op <= 2:
        row_id = db.insert(table, _random_row(rng))
        live_ids.append(row_id)
        return row_id
    if op == 3:
        ids = db.sp_record_job(
            f"job-{rng.randrange(20)}", f"user-{rng.randrange(12)}",
            f"http://store-{rng.randrange(8)}.example/p",
            f"store-{rng.randrange(8)}.example", rng.random() * 100,
            [_random_row(rng) for _ in range(rng.randrange(1, 6))],
        )
        live_ids.extend(ids)
        return ids
    if op == 4:
        job_id = f"job-{rng.randrange(20)}"
        return ("sp", db.sp_record_request(
            job_id, f"user-{rng.randrange(12)}",
            f"http://store-{rng.randrange(8)}.example/p",
            f"store-{rng.randrange(8)}.example", rng.random() * 100,
        ))
    if op == 5 and live_ids:
        doomed = [rng.choice(live_ids) for _ in range(rng.randrange(1, 4))]
        return ("del", db.delete_rows(table, doomed))
    if op == 6:
        return db.sp_responses_for_job(f"job-{rng.randrange(20)}")
    if op == 7:
        return db.lookup("requests", "domain", f"store-{rng.randrange(8)}.example")
    if op == 8:
        return db.lookup("requests", "user_id", f"user-{rng.randrange(12)}")
    return (db.count(table), db.scan(table))


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_lockstep_workload_is_engine_identical(seed):
    mem = DatabaseServer(backend="memory")
    lite = DatabaseServer(backend="sqlite")
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    ids_a, ids_b = [], []
    for _ in range(120):
        out_a = _step(mem, rng_a, ids_a)
        out_b = _step(lite, rng_b, ids_b)
        assert out_a == out_b
    assert mem.query_count == lite.query_count
    assert ids_a == ids_b
    for table in TABLES:
        rows_mem = mem.scan(table)
        rows_lite = lite.scan(table)
        assert rows_mem == rows_lite
        # byte-identical: same key order, same value types, same reprs
        assert repr(rows_mem) == repr(rows_lite)
    assert mem.backend.index_hits == lite.backend.index_hits
    assert mem.backend.index_misses == lite.backend.index_misses
    lite.backend.close()


def test_full_deployment_workload_is_engine_identical():
    """The acceptance bar: a whole simulated deployment produces the
    same database contents on either engine."""
    from repro.workloads.deployment import DeploymentConfig, LiveDeployment

    def run(engine):
        config = DeploymentConfig.test_scale()
        config.n_users = 20
        config.n_requests = 30
        config.db_backend = engine
        return LiveDeployment(config).run()

    mem = run("memory").sheriff.db
    lite = run("sqlite").sheriff.db
    for table in TABLES:
        assert repr(mem.scan(table)) == repr(lite.scan(table))
    assert mem.query_count == lite.query_count
    domains = {row["domain"] for row in mem.scan("requests")}
    assert {d: repr(mem.lookup("requests", "domain", d)) for d in domains} \
        == {d: repr(lite.lookup("requests", "domain", d)) for d in domains}


# -- value-level equivalence ---------------------------------------------------

Price = namedtuple("Price", "amount currency")

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.floats(allow_nan=False),  # inf, -0.0, 5e-324 and 1.8e308 included
    st.text(max_size=12),  # any unicode but lone surrogates
    st.sampled_from(["__tuple__", "a __tuple__ b", '{"__tuple__":[1]}', "é€\u2028𝄞"]),
    st.builds(Price, st.floats(allow_nan=False), st.sampled_from(["EUR", "USD"])),
)
#: a dict that is exactly ``{"__tuple__": …}`` is the tag itself
_keys = st.text(max_size=6).filter(lambda key: key != "__tuple__")
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_keys, inner, max_size=3),
    ),
    max_leaves=8,
)
_rows = st.fixed_dictionaries(
    {},
    optional={
        "job_id": st.sampled_from(["job-0", "job-1", "job-2"]),
        "value": _values,
        "other": _values,
        "__tuple__": _values,
    },
)


def _typed(value):
    """``value`` with every node's type spelled out, so ``1 == 1.0 ==
    True`` and ``(1,) == Price(1)`` cannot hide a difference (a namedtuple
    comes back from JSON as the plain tuple it equals)."""
    if isinstance(value, tuple):
        return ("tuple", [_typed(v) for v in value])
    if isinstance(value, list):
        return ("list", [_typed(v) for v in value])
    if isinstance(value, dict):
        return ("dict", [(key, _typed(v)) for key, v in value.items()])
    return (type(value).__name__, repr(value))


@settings(max_examples=150, deadline=None)
@given(
    single=st.lists(_rows, max_size=4),
    batch=st.lists(_rows, max_size=6),
    doomed=st.sets(st.integers(min_value=1, max_value=10), max_size=4),
)
def test_any_row_reads_back_identically_from_both_engines(single, batch, doomed):
    mem, lite = MemoryBackend(), SqliteBackend()

    def both(call):
        out_mem, out_lite = call(mem), call(lite)
        assert _typed(out_mem) == _typed(out_lite)
        return out_mem

    try:
        for row in single:
            both(lambda b: b.insert("responses", row))
        ids = both(lambda b: b.insert_many("responses", batch))
        assert ids == list(range(len(single) + 1, len(single) + len(batch) + 1))
        stored = both(lambda b: b.scan("responses"))
        assert _typed([{**row, "_id": i + 1} for i, row in enumerate(single + batch)]) \
            == _typed(stored)
        for job in ("job-0", "job-1", "job-2", "__tuple__"):
            both(lambda b: b.lookup("responses", "job_id", job))
        both(lambda b: b.lookup("responses", "value", "__tuple__"))  # off-index
        both(lambda b: b.delete_rows("responses", sorted(doomed)))
        both(lambda b: b.scan("responses"))
        assert both(lambda b: b.insert_many("requests", [])) == []
        assert both(lambda b: b.insert("requests", {})) == len(single) + len(batch) + 1
    finally:
        lite.close()


def test_scan_decodes_across_the_chunk_boundary():
    """Two and a bit decode chunks, with tagged tuples only in the last:
    the first chunks skip the tuple walk, the last one takes it."""
    n = 2 * sqlite_engine._SCAN_CHUNK + 3
    rows = [{"job_id": f"job-{i % 5}", "n": i} for i in range(n)]
    rows[-2]["price"] = (12.5, "EUR")
    mem, lite = MemoryBackend(), SqliteBackend()
    assert mem.insert_many("responses", rows) == lite.insert_many("responses", rows)
    assert repr(mem.scan("responses")) == repr(lite.scan("responses"))
    assert [r["n"] for r in lite.scan("responses")] == list(range(n))
    tail = lite.scan("responses", lambda r: r["n"] >= n - 4)
    assert tail == mem.scan("responses", lambda r: r["n"] >= n - 4)
    assert tail[-2]["price"] == (12.5, "EUR") and len(tail) == 4
    lite.close()


# -- format stability ----------------------------------------------------------

#: (row as inserted, the exact ``data`` text every database file holds for it)
STORED_FORMAT = [
    (
        {"job_id": "job-7", "proxy_id": "ipc-03", "amount": 1234.5, "currency": "EUR",
         "low_confidence": False, "error": None, "original_text": "1.234,50 €"},
        '{"job_id":"job-7","proxy_id":"ipc-03","amount":1234.5,"currency":"EUR",'
        '"low_confidence":false,"error":null,"original_text":"1.234,50 \\u20ac","_id":1}',
    ),
    (
        {"job_id": "job-7", "price": (12.5, "EUR"), "path": ["a", ("b", ("c",))]},
        '{"job_id":"job-7","price":{"__tuple__":[12.5,"EUR"]},'
        '"path":["a",{"__tuple__":["b",{"__tuple__":["c"]}]}],"_id":2}',
    ),
]


def test_rows_written_by_an_older_engine_read_back():
    """``data`` texts as the engine has always written them, put there by
    raw SQL: an existing database file stays readable."""
    lite = SqliteBackend()
    for row_id, (_, text) in enumerate(STORED_FORMAT, 1):
        lite._conn.execute(
            "INSERT INTO responses (_id, job_id, data) VALUES (?, ?, ?)",
            (row_id, "job-7", text),
        )
    lite._conn.commit()
    expected = [{**row, "_id": i} for i, (row, _) in enumerate(STORED_FORMAT, 1)]
    assert _typed(lite.lookup("responses", "job_id", "job-7")) == _typed(expected)
    assert _typed(lite.scan("responses")) == _typed(expected)
    lite.close()


def test_stored_text_is_unchanged():
    lite = SqliteBackend()
    lite.insert("responses", STORED_FORMAT[0][0])
    lite.insert_many("responses", [STORED_FORMAT[1][0]])
    stored = [data for (data,) in lite._conn.execute(
        "SELECT data FROM responses ORDER BY _id")]
    assert stored == [text for _, text in STORED_FORMAT]
    lite.close()


# -- the write path ------------------------------------------------------------

#: the compact and the canonical text as ``json`` itself writes them
REFERENCE_COMPACT = json.JSONEncoder(separators=(",", ":")).encode
REFERENCE_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _held_to_999(lite):
    """Lower the connection's variable limit to SQLite's pre-3.32 default
    where Python can (3.11+), so a statement binding more fails here as
    it would on such a build."""
    if hasattr(lite._conn, "setlimit"):
        lite._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
    return lite


def _statements(lite):
    """Every SQL statement the connection runs from here on."""
    ran = []
    lite._conn.set_trace_callback(ran.append)
    return ran


class TestWritePath:
    """A write encodes each row with one encoder built at import and lands
    each table's rows as multi-row ``INSERT``\\ s of at most 999 bound
    parameters, in one transaction: the stored texts stay the ones
    ``json`` writes and the memory engine's rows encode to."""

    #: rows of ``responses`` (``_id``, ``job_id``, ``data``) one INSERT holds
    CHUNK = sqlite_engine._MAX_VARIABLES // 3

    def _rows(self, n):
        rows = [dict(STORED_FORMAT[0][0], n=i) for i in range(n)]
        rows[-2] = dict(STORED_FORMAT[1][0])  # a tagged tuple, in the last chunk
        return rows

    def test_batch_across_chunks_stores_the_reference_texts(self):
        n = 2 * self.CHUNK + 3
        mem, lite = MemoryBackend(), _held_to_999(SqliteBackend())
        assert mem.insert_many("responses", self._rows(n)) \
            == lite.insert_many("responses", self._rows(n)) == list(range(1, n + 1))
        assert repr(mem.scan("responses")) == repr(lite.scan("responses"))
        assert _typed(mem.lookup("responses", "job_id", "job-7")) \
            == _typed(lite.lookup("responses", "job_id", "job-7"))
        stored = [data for (data,) in lite._conn.execute(
            "SELECT data FROM responses ORDER BY _id")]
        assert stored == [REFERENCE_COMPACT(sqlite_engine._jsonable(row))
                          for row in mem.scan("responses")]
        assert stored[0] == STORED_FORMAT[0][1].replace('"_id":1', '"n":0,"_id":1')
        assert stored[-2] == STORED_FORMAT[1][1].replace('"_id":2', f'"_id":{n - 1}')
        lite.close()

    def test_key_conflict_in_the_last_chunk_stores_nothing(self):
        lite = _held_to_999(SqliteBackend())
        lite.insert("responses", {"job_id": "j0"})
        n = 2 * self.CHUNK + 3
        # a row the engine did not store, on an id the batch's last chunk takes
        lite._conn.execute("INSERT INTO responses (_id, job_id, data) VALUES (?, ?, ?)",
                           (n, "x", '{"job_id":"x"}'))
        lite._conn.commit()
        before, next_id = lite.scan("responses"), lite._next_id
        ran = _statements(lite)
        with pytest.raises(sqlite3.IntegrityError):
            lite.insert_many("responses", self._rows(n))
        assert [s.split(" (")[0] for s in ran if s.startswith("INSERT")] \
            == ["INSERT INTO responses"] * 3  # two chunks went in before the third failed
        assert lite.scan("responses") == before
        assert lite._next_id == next_id
        assert lite.lookup("responses", "job_id", "job-7") == []
        lite.close()

    def test_a_job_write_is_one_insert_per_table(self):
        lite = SqliteBackend()
        ran = _statements(lite)
        rows = [{"job_id": "j1", "proxy_id": f"ipc-{i}", "amount": 1.5 * i}
                for i in range(36)]
        lite.insert_many("responses", rows)
        assert len([s for s in ran if s.startswith("INSERT")]) == 1
        ran.clear()
        lite.insert_batches([("requests", [{"job_id": "j2", "domain": "a.example"}]),
                             ("responses", [dict(row, job_id="j2") for row in rows])])
        assert [s.split(" (")[0] for s in ran if s.startswith("INSERT")] \
            == ["INSERT INTO requests", "INSERT INTO responses"]
        assert len(lite.lookup("responses", "job_id", "j2")) == 36
        lite.close()

    def test_delete_across_chunks_matches_the_memory_engine(self):
        mem, lite = MemoryBackend(), _held_to_999(SqliteBackend())
        rows = [{"job_id": f"job-{i % 7}", "n": i} for i in range(2500)]
        assert mem.insert_many("responses", [dict(r) for r in rows]) \
            == lite.insert_many("responses", [dict(r) for r in rows])
        doomed = [i for i in range(1, 2600) if i % 3] + [5, 5, 2]  # misses, repeats
        ran = _statements(lite)
        assert mem.delete_rows("responses", doomed) \
            == lite.delete_rows("responses", doomed) == 1667
        assert len([s for s in ran if s.startswith("DELETE")]) == 2
        assert repr(mem.scan("responses")) == repr(lite.scan("responses"))
        assert mem.lookup("responses", "job_id", "job-3") \
            == lite.lookup("responses", "job_id", "job-3")
        lite.close()


_ENCODER_CASES = [
    "é€ 𝄞 \"quoted\" \\ \x00", 0.1, -0.0, 1e300, 5e-324, float("inf"),
    None, True, False, 2**70, (1, (2.5, "x")), [], {}, (),
    {"b": [None, True, {"z": 1, "a": (0.5,)}], "a": "ü", "": False},
]


class TestOneEncoder:
    """``compact_json`` and the codec's canonical form write exactly the
    text ``json.JSONEncoder`` writes, from an encoder built once."""

    @pytest.mark.parametrize("value", _ENCODER_CASES)
    def test_texts_are_the_json_modules(self, value):
        assert compact_json(value) == REFERENCE_COMPACT(value)
        assert protocol._canonical(value) == REFERENCE_CANONICAL(value)

    @settings(max_examples=150, deadline=None)
    @given(value=_values)
    def test_any_value_encodes_as_the_json_module_does(self, value):
        assert compact_json(value) == REFERENCE_COMPACT(value)
        assert protocol._canonical(value) == REFERENCE_CANONICAL(value)

    def test_the_error_of_a_value_that_is_not_json(self):
        with pytest.raises(TypeError) as ours:
            compact_json({"bad": {1, 2}})
        with pytest.raises(TypeError) as theirs:
            REFERENCE_COMPACT({"bad": {1, 2}})
        assert str(ours.value) == str(theirs.value)

    def test_a_circular_value_raises(self):
        loop = []
        loop.append(loop)
        with pytest.raises(ValueError):
            compact_json(loop)
        with pytest.raises(ProtocolError):
            protocol.encode(protocol.Response(1, ok=True, result=loop))

    def test_without_the_c_encoder_it_is_the_json_modules(self, monkeypatch):
        monkeypatch.setattr(_jsontext, "c_make_encoder", None)
        encode = _jsontext.compact_encoder(sort_keys=True)
        for value in _ENCODER_CASES:
            assert encode(value) == REFERENCE_CANONICAL(value)
