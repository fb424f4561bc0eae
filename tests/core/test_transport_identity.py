"""Row identity across transports: the API redesign's core guarantee.

The same seeded workload must land byte-identical database rows whether
the measurement tier reaches the database through :class:`SimTransport`
(the Tier-1 default) or through :class:`SocketTransport` (real loopback
TCP) — and on either storage backend.  If this holds, swapping transports in a deployment config can
never change what the watchdog records, only how the bytes move.
"""

import json

import pytest

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.workloads.stores import build_named_stores, uniform_store_specs


def run_workload(transport, db_backend, n_checks=3):
    """One small seeded deployment; returns its canonical DB rows."""
    world = SheriffWorld.create(seed=2017)
    specs = uniform_store_specs(2, seed=2020)
    stores = build_named_stores(world, specs)
    sheriff = PriceSheriff(
        world,
        n_measurement_servers=2,
        ipc_sites=DEFAULT_IPC_SITES[:6],
        transport=transport,
        db_backend=db_backend,
    )
    addons = [
        sheriff.install_addon(world.make_browser(c)) for c in ("ES", "US")
    ]
    urls = []
    for spec in specs:
        store = stores[spec.domain]
        for product in store.catalog.products:
            urls.append(store.product_url(product.product_id))
    for i in range(n_checks):
        # checks arrive on a fixed schedule, one a minute
        world.clock.advance_to(60.0 * i)
        addon = addons[i % len(addons)]
        pending = addon.submit_price_check(urls[i % len(urls)])
        addon.collect(pending)
    rows = {
        "requests": canonical(sheriff.db.scan("requests")),
        "responses": canonical(sheriff.db.scan("responses")),
    }
    sheriff.shutdown()
    return rows


def canonical(rows):
    """Rows as sorted canonical JSON, backend row ids stripped."""
    cleaned = [
        {k: v for k, v in row.items() if not k.startswith("_")}
        for row in rows
    ]
    return sorted(
        json.dumps(row, sort_keys=True, default=str) for row in cleaned
    )


@pytest.mark.parametrize("db_backend", ["memory", "sqlite"])
class TestRowIdentity:
    def test_socket_transport_matches_sim(self, db_backend):
        sim = run_workload("sim", db_backend)
        socket = run_workload("socket", db_backend)
        assert socket == sim
        assert len(sim["responses"]) > 0


def test_transport_label_reaches_spans_and_registry():
    """The sheriff stamps its transport on the dispatch registry so the
    panels (and journey spans) can attribute rows to a carrier."""
    world = SheriffWorld.create(seed=2017)
    sheriff = PriceSheriff(world, n_measurement_servers=1)
    try:
        assert sheriff.transport_label == "sim"
        record = sheriff.distributor.servers()[0]
        assert record.transport == "sim"
    finally:
        sheriff.shutdown()
