"""What a stored row costs, and what a deleted one leaves behind.

A price check's rows reach the Database server decoded from the wire,
each value a fresh object.  The memory engine keeps a row as one value
tuple under a column tuple its shape shares, with repeated strings held
once, so a stored response row costs its own values (~390 bytes here)
instead of a dict of copies (~1 000 bytes, when each row was kept as
the dict the server built).  The figure is retained bytes per stored
response row, as ``tracemalloc`` counts them, after 40 price checks'
writes of 36 response rows each.

The memo that shares those strings must not outlive the rows: a row
deleted (the PII audit's delete path) takes its text with it, from the
rows, the indexes, the shapes and the memo.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.core.database import DatabaseServer
from repro.core.measurement import RESPONSE_COLUMNS
from repro.net.protocol import Request, decode, encode
from repro.storage import make_backend

#: bytes a stored response row may retain: 380-411 measured on CPython
#: 3.10.13, 3.11.7 and 3.12.1 (948-1 206 when every row was a dict of
#: fresh copies)
RETAINED_PER_ROW_MAX = 500

#: (country, region, city, currency) of the vantage points a check uses
VANTAGE = [
    ("ES", "Spain", "Madrid", "EUR"), ("ES", "Spain", "Barcelona", "EUR"),
    ("DE", "Germany", "Berlin", "EUR"), ("FR", "France", "Paris", "EUR"),
    ("GB", "United Kingdom", "London", "GBP"), ("US", "United States", "New York", "USD"),
    ("JP", "Japan", "Tokyo", "JPY"), ("BR", "Brazil", "Sao Paulo", "BRL"),
    ("IN", "India", "Mumbai", "INR"),
]


def _job_frame(job):
    """One price check's ``sp_record_job`` call as it crosses the wire: a
    request and 36 response rows, column-wise, values as a check has them."""
    amount = 100 + job * 7.25
    rows = []
    for i in range(36):
        country, region, city, currency = VANTAGE[i % len(VANTAGE)]
        rows.append((
            amount, amount * (1 + (i % 5) / 100), city, country, currency, None,
            "IPC" if i < 30 else "PPC", False, f"{amount:,.2f} {currency}",
            f"ipc-{i:02d}" if i < 30 else f"peer-{job % 50}-{i}", region,
            1000.0 + job, False,
        ))
    payload = {"job_id": f"job-{job}", "user_id": f"user-{job % 25}",
               "url": f"http://shop-{job % 10}.example/product/{job}",
               "domain": f"shop-{job % 10}.example", "time": 1000.0 + job,
               "rows": {"cols": list(RESPONSE_COLUMNS), "rows": rows}}
    return encode(Request(job, "ms-0", "db", "sp_record_job", payload))


def retained_bytes_per_row(n_jobs=40):
    """Bytes a memory-engine Database server still holds per stored
    response row once ``n_jobs`` checks are written, each decoded from
    its wire frame as the server receives it (the frames themselves not
    counted: they exist before the server does)."""
    frames = [_job_frame(job) for job in range(n_jobs)]
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        db = DatabaseServer(backend="memory")
        for frame in frames:
            db.sp_record_job(**decode(frame).payload)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return retained / db.count("responses")


def test_a_stored_row_costs_its_values():
    assert retained_bytes_per_row() < RETAINED_PER_ROW_MAX


@pytest.mark.parametrize("engine", ["memory", "sqlite"])
def test_a_deleted_row_leaves_nothing_behind(engine):
    """A string only deleted rows held is referenced by nothing the
    engine keeps: not a row, an index, a shape or the memo.  (An engine
    that shared strings through ``sys.intern`` fails this on CPython
    3.12, where an interned string is immortal.)"""
    backend = make_backend(engine)
    secret = "".join(["alice.", "example", "@mail.example"])  # built, not a constant
    column = "".join(["note-", "only-deleted-rows-have"])
    held = sys.getrefcount(secret), sys.getrefcount(column)
    kept = backend.insert_many("requests", [
        {"job_id": "j0", "user_id": "bob", "url": "http://a.example/"},
    ])
    doomed_requests = backend.insert_many("requests", [
        {"job_id": "j1", "user_id": secret, "url": secret},
        {"job_id": "j2", "user_id": secret, "url": "http://a.example/"},
    ])
    doomed_response = backend.insert("responses", {"job_id": "j1", column: secret})
    assert backend.lookup("requests", "user_id", secret)
    assert backend.delete_rows("requests", doomed_requests) == 2
    assert backend.delete_rows("responses", [doomed_response]) == 1
    gc.collect()
    assert (sys.getrefcount(secret), sys.getrefcount(column)) == held
    assert backend.lookup("requests", "user_id", secret) == []
    assert [row["_id"] for row in backend.scan("requests")] == kept
    backend.close()
