"""Concurrency shapes the timeline, never the rows.

The engine's core determinism claim: the Measurement server performs
the fan-out eagerly in canonical order, so every RNG stream (world,
faults, latency) is consumed identically whether each server's pool has
one fetch worker (fetches land one at a time — serial) or eight
(pipelined) — the engine only packs the fetch durations onto the
simulated timeline.  Two fresh worlds with the same seed and the same
``FaultPlan`` must therefore produce identical ``PriceCheckResult``
rows, identical database contents, and identical fault-event logs, and
differ only in the engine-loop makespan.
"""

import random

import pytest

from repro.core.addon import PriceCheckFailed
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.web.catalog import make_catalog
from repro.web.internet import ContentSite
from repro.web.pricing import CountryMultiplierPricing, UniformPricing
from repro.web.store import EStore

from .conftest import SMALL_IPC_SITES

N_CHECKS = 4


def _build_world(seed):
    world = SheriffWorld.create(seed=seed)
    for domain, country, pricing, kwargs in (
        ("uniform.example", "ES", UniformPricing(), {}),
        (
            "geo.example", "US",
            CountryMultiplierPricing({"CA": 1.30, "GB": 1.10}),
            {"currency_strategy": "geo"},
        ),
    ):
        catalog = make_catalog(domain, size=6, rng=random.Random(len(domain) * 131))
        world.internet.register(
            EStore(
                domain=domain, country_code=country, catalog=catalog,
                pricing=pricing, geodb=world.geodb, rates=world.rates,
                tracker_domains=("doubleclick.net", "criteo.com"), **kwargs,
            )
        )
    world.internet.register(
        ContentSite("news.example", tracker_domains=("doubleclick.net",))
    )
    return world


def _run(max_fetch_workers, chaos_profile=None, seed=7, page_cache_ttl=0.0, repeat=False):
    """One full deployment run; returns everything comparable.

    ``repeat=True`` checks each URL twice so the page cache (when
    enabled) actually serves hits.
    """
    world = _build_world(seed)
    sheriff = PriceSheriff(
        world, n_measurement_servers=2, ipc_sites=SMALL_IPC_SITES,
        chaos_profile=chaos_profile, chaos_seed=11,
        max_fetch_workers=max_fetch_workers, page_cache_ttl=page_cache_ttl,
    )
    user = sheriff.install_addon(world.make_browser("ES", "Madrid"))
    for city in ("Barcelona", "Valencia", "Madrid"):
        sheriff.install_addon(world.make_browser("ES", city))

    store = world.internet.site("uniform.example")
    urls = [
        store.product_url(p.product_id) for p in store.catalog.products[:N_CHECKS]
    ]
    if repeat:
        urls = urls + urls
    outcomes = []
    for k, url in enumerate(urls, 1):
        # checks arrive on a fixed schedule, however long each one took
        world.clock.advance_to(60.0 * k)
        try:
            result = user.check_price(url)
        except PriceCheckFailed as exc:
            outcomes.append(("failed", url, str(exc)))
        else:
            outcomes.append(("ok", url, list(result.rows)))
    fault_log = sheriff.faults.event_log() if sheriff.faults is not None else ()
    return {
        "outcomes": outcomes,
        "faults": fault_log,
        "db": sheriff.db.scan("responses"),
        "cache_hits": sheriff.engine.cache.hits,
        "makespan": sheriff.engine.now,
    }


@pytest.mark.parametrize("chaos_profile", [None, "lossy", "chaos_monkey"])
def test_serial_and_pipelined_runs_are_identical(chaos_profile):
    serial = _run(max_fetch_workers=1, chaos_profile=chaos_profile)
    pipelined = _run(max_fetch_workers=8, chaos_profile=chaos_profile)

    # identical outcomes: every check succeeds/fails the same way with
    # the exact same ResultRow values in the exact same order
    assert serial["outcomes"] == pipelined["outcomes"]
    # identical fault-event logs: the FaultPlan RNG was consulted in the
    # same sequence for the same (src, dst) pairs
    assert serial["faults"] == pipelined["faults"]
    # identical persisted rows, ids included (batched writes preserve
    # the row _id sequence of the serial inserts)
    assert serial["db"] == pipelined["db"]
    # ...and the worker count did change something: the timeline
    assert pipelined["makespan"] < serial["makespan"]


def test_page_cache_keeps_modes_identical():
    """With the cache serving real hits, 1 and 8 workers still agree.

    The cache is consulted in the same eager canonical order whatever
    the pool size, so a hit (and the fetch it skips) happens at the same
    point of every RNG stream either way.
    """
    serial = _run(max_fetch_workers=1, page_cache_ttl=3600.0, repeat=True)
    pipelined = _run(max_fetch_workers=8, page_cache_ttl=3600.0, repeat=True)

    assert pipelined["cache_hits"] > 0
    assert serial["cache_hits"] == pipelined["cache_hits"]
    assert serial["outcomes"] == pipelined["outcomes"]
    assert serial["db"] == pipelined["db"]


def test_at_least_one_chaos_run_logs_faults():
    run = _run(max_fetch_workers=8, chaos_profile="chaos_monkey")
    assert len(run["faults"]) >= 1
