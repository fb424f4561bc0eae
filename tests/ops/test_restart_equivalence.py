"""Restart-equivalence: a healed run is row-identical to a fault-free run.

The operations layer's determinism contract, property-test style: for
seeded, randomly generated flap-only ``FaultPlan``s, a *supervised* run
(probes ticking after every request, restarts replacing flapped
Measurement servers) must produce exactly the rows of a fault-free run
of the same world — the chaos and the healing are invisible in the
dataset, on **both** storage backends.

Why this holds (and what this suite pins): persisted rows carry no
server identity, retry backoff is accounted rather than slept (no clock
advance on failover), a rebuilt ``MeasurementServer`` consumes no world
RNG, and supervision itself is RNG-free and clock-free.  Any regression
on any of those four fronts shows up here as a row diff.
"""

import random

import pytest

from repro.core.addon import PriceCheckFailed
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.net.faults import ROLE_SERVER, FaultPlan, FaultRule
from repro.ops import build_supervisor
from repro.web.catalog import make_catalog
from repro.web.pricing import CountryMultiplierPricing, UniformPricing
from repro.web.store import EStore

from ..core.conftest import SMALL_IPC_SITES

N_CHECKS = 4
WORLD_SEED = 7

#: both storage engines: sqlite, and the memory engine as its oracle
BACKENDS = ("memory", "sqlite")


def _random_flap_plan(plan_seed):
    """A seeded, server-targeted, flap-only fault plan.

    Flap rules draw the plan's own RNG inside ``host_down`` and darken
    whole servers; they never touch a request in flight, so the rows of
    every *successful* check are untouched by construction — provided
    failover, retry, and supervised restarts do their jobs.  Keeping
    probabilities moderate guarantees (checked below) that no check
    exhausts its retry budget with three servers standing by.
    """
    rng = random.Random(plan_seed)
    rules = [
        FaultRule(
            kind="flap",
            probability=round(rng.uniform(0.05, 0.30), 3),
            dst=ROLE_SERVER,
            flap_duration=round(rng.uniform(60.0, 150.0), 1),
        )
        for _ in range(rng.randint(1, 2))
    ]
    return FaultPlan(rules, seed=plan_seed * 101, name=f"random-flaps-{plan_seed}")


def _build_world():
    world = SheriffWorld.create(seed=WORLD_SEED)
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
                tracker_domains=("doubleclick.net",), **kwargs,
            )
        )
    return world


def _run(backend, faults=None, supervised=False):
    """One small deployment run; returns everything row-comparable."""
    world = _build_world()
    sheriff = PriceSheriff(
        world, n_measurement_servers=3, ipc_sites=SMALL_IPC_SITES,
        faults=faults, retry_budget=8, db_backend=backend,
    )
    supervisor = build_supervisor(sheriff) if supervised else None
    user = sheriff.install_addon(world.make_browser("ES", "Madrid"))
    for city in ("Barcelona", "Valencia", "Madrid"):
        sheriff.install_addon(world.make_browser("ES", city))

    store = world.internet.site("uniform.example")
    urls = [
        store.product_url(p.product_id)
        for p in store.catalog.products[:N_CHECKS]
    ]
    outcomes = []
    for k, url in enumerate(urls, 1):
        # checks arrive on a fixed schedule, however long each one took
        world.clock.advance_to(60.0 * k)
        if supervisor is not None:
            sheriff.coordinator.chaos_tick()
            supervisor.tick()
        try:
            result = user.check_price(url)
        except PriceCheckFailed as exc:
            outcomes.append(("failed", url, str(exc)))
        else:
            outcomes.append(("ok", url, list(result.rows)))
    heal = None
    if supervisor is not None:
        heal = supervisor.heal(
            max_seconds=3600.0, step=15.0,
            pre_tick=sheriff.coordinator.chaos_tick,
        )
    return {
        "outcomes": outcomes,
        "db": sheriff.db.scan("responses"),
        "supervisor": supervisor,
        "heal": heal,
        "faults": faults,
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("plan_seed", (1, 2, 3))
def test_supervised_chaos_run_is_row_identical_to_fault_free(
    plan_seed, backend
):
    baseline = _run(backend)
    healed = _run(
        backend, faults=_random_flap_plan(plan_seed), supervised=True
    )

    # the property is only meaningful when nothing failed outright: the
    # retry budget and the standby servers must absorb every flap
    assert all(kind == "ok" for kind, _, _ in healed["outcomes"])
    # row identity: same outcomes, same persisted rows, ids included
    assert healed["outcomes"] == baseline["outcomes"]
    assert healed["db"] == baseline["db"]
    # and the run ends healed
    assert healed["heal"].converged


@pytest.mark.parametrize("plan_seed", (1, 2, 3))
def test_backends_agree_on_the_healed_rows(plan_seed):
    """The same supervised chaos run lands byte-identical rows on both
    storage engines — healing does not depend on the backend."""
    runs = {
        backend: _run(
            backend, faults=_random_flap_plan(plan_seed), supervised=True
        )
        for backend in BACKENDS
    }
    assert runs["memory"]["db"] == runs["sqlite"]["db"]
    assert runs["memory"]["outcomes"] == runs["sqlite"]["outcomes"]


def test_at_least_one_seed_actually_flaps():
    """Guard against a vacuous property: across the pinned seeds, at
    least one plan injects a real flap that the supervisor heals."""
    total_flaps = 0
    total_restarts = 0
    for plan_seed in (1, 2, 3):
        run = _run("memory", faults=_random_flap_plan(plan_seed),
                   supervised=True)
        total_flaps += sum(
            1 for e in run["faults"].event_log() if e.kind == "flap"
        )
        total_restarts += run["supervisor"].status()["restarts"]
    assert total_flaps > 0
    assert total_restarts > 0
