"""A price check is its Coordinator ``JobRecord``.

Users arrive on a random open-loop schedule, on the direct tier and on
the queue tier, on a clean network and under ``chaos_monkey``, while
servers go offline and the quorum is sometimes out of reach.  Every
check a user got a record for is collected, and then:

* ``collect`` raises :class:`PriceCheckFailed` exactly when the record
  is failed, carrying its ``failure_reason``;
* otherwise the rows it returns are the rows the Database server
  stored for the job;
* no record the Coordinator keeps still holds the job's payload or its
  result — ``Coordinator.jobs`` keeps
  every record, so a record that held them would keep one result per
  check alive — and once the loop has run dry no worker pool holds a
  job in flight.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PriceCheckFailed, SheriffError
from repro.core.measurement import PriceCheckJob
from repro.core.pricecheck import PriceCheckResult
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.workloads.stores import build_named_stores, uniform_store_specs

from .conftest import SMALL_IPC_SITES

# (seconds after the previous arrival, which user arrives, collect now,
# which server a caller marks offline first: -1 for none)
_arrivals = st.lists(
    st.tuples(
        st.floats(0.0, 3.0), st.integers(0, 2), st.booleans(),
        st.integers(-1, 2),
    ),
    min_size=1,
    max_size=8,
)


def _deployment(job_queue, chaos_seed, quorum):
    """Three servers with two fetch workers each, two ES peers and
    three initiators over one store; returns the sheriff, the
    initiators and the store's product URLs."""
    world = SheriffWorld.create(seed=71)
    (store,) = build_named_stores(world, uniform_store_specs(1, seed=74)).values()
    sheriff = PriceSheriff(
        world, n_measurement_servers=3, ipc_sites=SMALL_IPC_SITES[:4],
        max_fetch_workers=2, job_queue=job_queue, queue_depth=3, quorum=quorum,
        chaos_profile=None if chaos_seed is None else "chaos_monkey",
        chaos_seed=chaos_seed or 0,
    )
    for city in ("Madrid", "Barcelona"):
        sheriff.install_addon(world.make_browser("ES", city))
    users = [
        sheriff.install_addon(world.make_browser("ES", "Madrid"), serve_as_ppc=False)
        for _ in range(3)
    ]
    urls = [store.product_url(p.product_id) for p in store.catalog.products]
    return sheriff, users, urls


def _stored(row):
    """The columns a stored response row keeps, from the row as stored."""
    return (
        row["proxy_id"], row["kind"], row["country"], row["region"],
        row["city"], row["original_text"], row["amount"], row["currency"],
        row["amount_eur"], row["low_confidence"], row["used_doppelganger"],
        row["error"],
    )


def _returned(row):
    """The same columns, from a row ``collect`` returned."""
    return (
        row.proxy_id, row.kind, row.country, row.region, row.city,
        row.original_text, row.detected_amount, row.detected_currency,
        row.amount_eur, row.low_confidence, row.used_doppelganger, row.error,
    )


def _check_collect(sheriff, user, record):
    try:
        result = user.collect(record)
    except PriceCheckFailed as exc:
        assert record.failed, record
        assert (exc.job_id, exc.reason) == (record.job_id, record.failure_reason)
        return
    assert not record.failed and record.completed
    stored = sheriff.db.sp_responses_for_job(record.job_id)
    assert [_returned(r) for r in result.rows] == [_stored(r) for r in stored]


@pytest.mark.parametrize("job_queue", [False, True], ids=["direct", "queued"])
@given(
    arrivals=_arrivals,
    chaos_seed=st.one_of(st.none(), st.integers(0, 50)),
    quorum=st.sampled_from((1, 7, 8)),
)
@settings(max_examples=25, deadline=None)
def test_a_price_check_is_its_record(job_queue, arrivals, chaos_seed, quorum):
    sheriff, users, urls = _deployment(job_queue, chaos_seed, quorum)
    clock, loop = sheriff.world.clock, sheriff.engine.loop
    open_checks, arrival = [], 0.0
    for i, (gap, who, collect_now, outage) in enumerate(arrivals):
        arrival += gap
        loop.run_until(max(clock.now, arrival))  # what lands before the user arrives
        if outage >= 0:
            # through the server list alone: whoever sends to it next
            # reports it, and the Coordinator moves or fails its jobs
            sheriff.distributor.mark_offline(f"ms-{outage}")
        user = users[who]
        try:
            record = user.submit_price_check(urls[i % len(urls)])
        except SheriffError:
            continue  # shed, or failed over past its budget before a record came back
        assert record is sheriff.coordinator.jobs[record.job_id]
        if collect_now:
            _check_collect(sheriff, user, record)
        else:
            open_checks.append((user, record))
    for user, record in open_checks:
        _check_collect(sheriff, user, record)

    # the job, its result, or any list
    payloads = (PriceCheckJob, PriceCheckResult, list)
    for record in sheriff.coordinator.jobs.values():
        assert record.resolved, record
        held = [x for x in gc.get_referents(record) if isinstance(x, payloads)]
        assert held == [], record.job_id
    loop.run()  # a job failed in flight still has its fetches out
    assert [pool._in_flight for pool in sheriff.engine._pools.values()] == [
        {} for _ in sheriff.engine._pools]


def test_a_job_failed_in_flight_drops_its_landings():
    """A running job the Coordinator fails is failed at once; its
    fetches still hold their workers until the last lands."""
    sheriff, users, urls = _deployment(False, None, 1)
    record = users[0].submit_price_check(urls[0])
    assert record.state == "running"
    sheriff.coordinator.fail_job(record.job_id, "failed in flight")
    assert record.failed
    pool = sheriff.engine.pool_for(record.server_name)
    assert record.job_id in pool._in_flight
    sheriff.engine.drain()
    assert pool._in_flight == {}
