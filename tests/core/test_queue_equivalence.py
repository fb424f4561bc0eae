"""Property: queued dispatch is row-identical to direct dispatch.

The queue tier defers execution from submit time to drain time, may
shed, steal, and fail a job the Coordinator failed — yet for a fixed
seed and server count a clean run must produce byte-identical results
and database rows to the direct tier, on every storage backend.  The tier earns this by draining
in global admission order (the order the direct tier executes in) and
by keeping every scheduling decision RNG-free.

Initiators are installed with ``serve_as_ppc=False`` and the PPC pool
is a separate set of users who never visit pages: a PPC answers proxy
requests with its *live* cookie jar, so an initiator that also served
as a PPC would leak its browsing history into other jobs' rows and the
comparison would measure cookie state, not dispatch order.
"""

import pytest

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.workloads.stores import build_named_stores, uniform_store_specs

from .conftest import SMALL_IPC_SITES

BACKENDS = ("memory", "sqlite")


def _run(backend, job_queue, disrupt=False):
    """One seeded three-wave run; returns (outcomes, persisted rows)."""
    world = SheriffWorld.create(seed=71)
    specs = uniform_store_specs(6, seed=74)
    stores = build_named_stores(world, specs)
    sheriff = PriceSheriff(
        world,
        n_measurement_servers=2,
        ipc_sites=SMALL_IPC_SITES,
        dispatch_policy="round_robin",
        db_backend=backend,
        job_queue=job_queue,
        queue_steal_threshold=1 if disrupt else 16,
    )
    for city in ("Madrid", "Barcelona", "Valencia"):
        sheriff.install_addon(world.make_browser("ES", city))
    initiators = [
        sheriff.install_addon(
            world.make_browser("ES", "Madrid"), serve_as_ppc=False
        )
        for _ in range(3)
    ]
    urls = []
    for spec in specs:
        store = stores[spec.domain]
        urls.extend(
            store.product_url(p.product_id) for p in store.catalog.products
        )

    outcomes = []
    index = 0
    for _ in range(3):
        if disrupt and job_queue:
            # pile the wave onto ms-0, then resurrect ms-1 before the
            # drain so imbalance steals actually fire
            sheriff.distributor.mark_offline("ms-1")
        wave = []
        for addon in initiators:
            url = urls[index % len(urls)]
            index += 1
            wave.append((addon, addon.submit_price_check(url)))
        if disrupt and job_queue:
            sheriff.distributor.heartbeat("ms-1", world.clock.now)
        for addon, pending in wave:
            result = addon.collect(pending)
            outcomes.append(
                (
                    result.job_id,
                    result.url,
                    result.requested_currency,
                    tuple(tuple(sorted(vars(row).items())) for row in result.rows),
                )
            )
        world.clock.advance(3600.0)

    rows = [
        tuple(sorted((k, v) for k, v in row.items() if k != "_id"))
        for row in sheriff.db.scan("responses")
    ]
    stolen = sheriff.job_queue.steals if sheriff.job_queue else {}
    return outcomes, rows, stolen


@pytest.mark.parametrize("backend", BACKENDS)
def test_queued_equals_direct(backend):
    direct_outcomes, direct_rows, _ = _run(backend, job_queue=False)
    queued_outcomes, queued_rows, _ = _run(backend, job_queue=True)
    assert direct_outcomes == queued_outcomes
    assert direct_rows == queued_rows
    assert direct_rows  # the comparison is not vacuous


def test_backends_agree_on_queued_rows():
    memory = _run("memory", job_queue=True)
    sqlite = _run("sqlite", job_queue=True)
    assert memory[0] == sqlite[0]
    assert memory[1] == sqlite[1]


def test_work_stealing_preserves_rows():
    """Even when imbalance steals move jobs between servers, the rows
    are those of the undisturbed direct run: durations come from
    per-server latency RNGs but never gate row content."""
    direct_outcomes, direct_rows, _ = _run("memory", job_queue=False)
    stolen_outcomes, stolen_rows, steals = _run(
        "memory", job_queue=True, disrupt=True
    )
    assert steals.get("imbalance", 0) >= 1
    assert stolen_outcomes == direct_outcomes
    assert stolen_rows == direct_rows
