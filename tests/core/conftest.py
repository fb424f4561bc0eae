"""Fixtures standing up a full simulated deployment for core tests."""

import random

import pytest

from repro.core.coordinator import Coordinator
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.core.whitelist import Whitelist
from repro.net.events import Clock
from repro.net.geo import GeoDatabase
from repro.net.p2p import PeerOverlay
from repro.web.catalog import make_catalog
from repro.web.internet import ContentSite
from repro.web.pricing import (
    ABTestPricing,
    CountryMultiplierPricing,
    PdiPdPricing,
    UniformPricing,
    VatInclusivePricing,
)
from repro.web.store import EStore

#: a reduced IPC fleet keeps unit tests fast; experiments use all 30.
SMALL_IPC_SITES = (
    ("ES", "Madrid", 1.0),
    ("ES", "Barcelona", 1.0),
    ("US", "Tennessee", 1.0),
    ("CA", "Ontario", 1.0),
    ("GB", "London", 1.0),
    ("FR", "Paris", 1.0),
    ("JP", "Tokyo", 1.0),
    ("DE", "Berlin", 1.0),
)

#: the one whitelisted product page of :func:`bare_coordinator`
SHOP_URL = "http://shop.example/product/1"


def bare_coordinator(distributor, **kwargs):
    """A Coordinator over ``distributor`` alone: no world, no peers, and
    ``SHOP_URL``'s domain whitelisted."""
    return Coordinator(
        Whitelist(["shop.example"]), distributor, PeerOverlay(),
        GeoDatabase(), Clock(), **kwargs,
    )


def submit_job(coordinator, peer_id="peer-x"):
    """Admit one request for ``SHOP_URL``; return its ticket."""
    location = coordinator.geodb.make_location("ES", "Madrid")
    ticket, _ = coordinator.new_request(peer_id, SHOP_URL, location)
    return ticket


def lifecycle(telemetry, event):
    """``sheriff_dispatch_jobs_total{event}`` of one deployment."""
    return telemetry.registry.get("sheriff_dispatch_jobs_total").value(event=event)


def _store(world, domain, country, pricing, **kwargs):
    catalog = make_catalog(domain, size=8, rng=random.Random(len(domain) * 131))
    store = EStore(
        domain=domain,
        country_code=country,
        catalog=catalog,
        pricing=pricing,
        geodb=world.geodb,
        rates=world.rates,
        tracker_domains=("doubleclick.net", "criteo.com"),
        **kwargs,
    )
    world.internet.register(store)
    return store


@pytest.fixture
def world():
    world = SheriffWorld.create(seed=42)
    _store(world, "uniform.example", "ES", UniformPricing())
    _store(
        world, "geo.example", "US",
        CountryMultiplierPricing({"CA": 1.30, "GB": 1.10, "JP": 1.05}),
        currency_strategy="geo",
    )
    _store(world, "vat.example", "DE", VatInclusivePricing(world.geodb))
    _store(
        world, "ab.example", "ES",
        ABTestPricing(deltas=(-0.05, 0.0, 0.05), salt="ab-es"),
    )
    _store(
        world, "sticky.example", "GB",
        ABTestPricing(deltas=(-0.07, 0.07), sticky=True, salt="uk"),
    )
    _store(
        world, "pdipd.example", "ES",
        PdiPdPricing(
            world.ecosystem, ["luxury.example"], markup=0.15, min_hits=3
        ),
    )
    for domain in ("news.example", "luxury.example", "sports.example",
                   "cooking.example"):
        world.internet.register(
            ContentSite(domain, tracker_domains=("doubleclick.net",))
        )
    return world


@pytest.fixture
def sheriff(world):
    return PriceSheriff(world, n_measurement_servers=2, ipc_sites=SMALL_IPC_SITES)


@pytest.fixture
def es_user(world, sheriff):
    browser = world.make_browser("ES", "Madrid")
    return sheriff.install_addon(browser)


@pytest.fixture
def es_peers(world, sheriff):
    """Three more Spanish PPCs so price checks get peer measurement points."""
    addons = []
    for city in ("Madrid", "Barcelona", "Valencia"):
        browser = world.make_browser("ES", city)
        addons.append(sheriff.install_addon(browser))
    return addons
