"""Telemetry must be purely observational.

The engine's determinism claim (one fetch worker per pool == eight,
byte-identical rows) has to survive the telemetry plane: instruments
never consume an RNG stream, never read wall clocks, and never change
control flow, so a run with metrics + tracing enabled produces exactly
the rows, fault log, and database contents of an uninstrumented run.
"""

import random

import pytest

from repro.core.addon import PriceCheckFailed
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.obs import Telemetry
from repro.web.catalog import make_catalog
from repro.web.pricing import CountryMultiplierPricing, UniformPricing
from repro.web.store import EStore

from tests.core.conftest import SMALL_IPC_SITES

N_CHECKS = 3


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
        catalog = make_catalog(domain, size=4, rng=random.Random(len(domain) * 131))
        world.internet.register(
            EStore(
                domain=domain, country_code=country, catalog=catalog,
                pricing=pricing, geodb=world.geodb, rates=world.rates,
                **kwargs,
            )
        )
    return world


def _run(telemetry, max_fetch_workers=8, chaos_profile="chaos_monkey", seed=7):
    world = _build_world(seed)
    sheriff = PriceSheriff(
        world, n_measurement_servers=2, ipc_sites=SMALL_IPC_SITES,
        chaos_profile=chaos_profile, chaos_seed=11,
        max_fetch_workers=max_fetch_workers, telemetry=telemetry,
    )
    user = sheriff.install_addon(world.make_browser("ES", "Madrid"))
    for city in ("Barcelona", "Valencia"):
        sheriff.install_addon(world.make_browser("ES", city))

    store = world.internet.site("uniform.example")
    urls = [
        store.product_url(p.product_id) for p in store.catalog.products[:N_CHECKS]
    ]
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
    return sheriff, {
        "outcomes": outcomes,
        "faults": sheriff.faults.event_log() if sheriff.faults else (),
        "db": sheriff.db.scan("responses"),
    }


@pytest.mark.parametrize("overlapped", [False, True])
def test_rows_identical_with_telemetry_on_and_off(overlapped):
    workers = 8 if overlapped else 1  # one worker: fetches land one at a time
    _, off = _run(telemetry=None, max_fetch_workers=workers)
    _, on = _run(telemetry=Telemetry(), max_fetch_workers=workers)
    assert off["outcomes"] == on["outcomes"]
    assert off["faults"] == on["faults"]
    assert off["db"] == on["db"]


def test_serial_equals_pipelined_with_telemetry_on():
    """Concurrency shapes the timeline, never the rows — traced or not."""
    serial_sheriff, serial = _run(telemetry=Telemetry(), max_fetch_workers=1)
    sheriff, pipelined = _run(telemetry=Telemetry(), max_fetch_workers=8)
    assert serial["outcomes"] == pipelined["outcomes"]
    assert serial["faults"] == pipelined["faults"]
    assert serial["db"] == pipelined["db"]
    assert sheriff.engine.now < serial_sheriff.engine.now


def test_metrics_mirror_the_run():
    sheriff, run = _run(telemetry=Telemetry())
    registry = sheriff.telemetry.registry
    n_ok = sum(1 for o in run["outcomes"] if o[0] == "ok")

    completed = registry.get("sheriff_engine_jobs_completed_total")
    assert completed is not None and completed.total >= n_ok

    latency = registry.get("sheriff_check_latency_seconds")
    assert latency.total_count() >= n_ok

    # the fault counter is the tally of the event log, so the two can
    # never drift
    injected = registry.get("sheriff_faults_injected_total")
    assert injected.total == len(run["faults"])

    exposition = registry.render_exposition()
    for family in (
        "sheriff_engine_jobs_submitted_total",
        "sheriff_dispatch_jobs_total",
        "sheriff_db_queries_total",
        "sheriff_peers_online",
    ):
        assert family in exposition


def test_traces_cover_every_attempted_check():
    sheriff, run = _run(telemetry=Telemetry())
    tracer = sheriff.telemetry.tracer
    assert len(tracer.trace_ids()) == len(run["outcomes"])
    trace_id = tracer.trace_ids()[0]
    spans = tracer.spans_for(trace_id)
    names = {s.name for s in spans}
    assert "price_check" in names and "fetch" in names
    root = next(s for s in spans if s.name == "price_check")
    fetches = [s for s in spans if s.name == "fetch"]
    # the fan-out runs at one instant; a fetch starts when a worker
    # takes it and ends when it lands, and the root covers them all
    assert min(f.start for f in fetches) == root.start
    assert all(root.start <= f.start <= f.end <= root.end for f in fetches)
    assert all(f.parent_id == root.span_id for f in fetches)
    assert root.end == max(f.end for f in fetches)
