"""The whole paper in one scenario.

A single narrative integration test covering every major subsystem in
the order the deployed system exercises them:

1. users browse organically and get profiled by trackers;
2. price checks run the full Fig. 1 protocol and catch a cross-border
   discriminator;
3. the privacy-preserving clustering builds doppelgangers;
4. a peer exhausts its pollution budget and transparently serves as its
   doppelganger, redeeming the bearer token over the anonymity network;
5. the PII audit finds the database clean;
6. the watchdog flags the discriminator and keeps an audit trail.
"""

import random

import pytest

from repro.analysis.pricediff import domains_with_difference
from repro.core.pii_audit import run_pii_audit
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.core.watchdog import Watchdog
from repro.web.catalog import make_catalog
from repro.web.internet import ContentSite
from repro.web.pricing import CountryMultiplierPricing, UniformPricing
from repro.web.store import EStore

IPCS = (
    ("ES", "Madrid", 1.0),
    ("ES", "Barcelona", 1.0),
    ("US", "Tennessee", 1.0),
    ("JP", "Tokyo", 1.0),
)


@pytest.fixture(scope="module")
def story():
    world = SheriffWorld.create(seed=2024)
    honest = EStore(
        domain="honest.example", country_code="ES",
        catalog=make_catalog("honest.example", size=8, rng=random.Random(1)),
        pricing=UniformPricing(), geodb=world.geodb, rates=world.rates,
        tracker_domains=("doubleclick.net",),
    )
    shady = EStore(
        domain="shady.example", country_code="US",
        catalog=make_catalog("shady.example", size=8, rng=random.Random(2)),
        pricing=CountryMultiplierPricing({"JP": 1.4, "ES": 1.15}),
        geodb=world.geodb, rates=world.rates,
        tracker_domains=("criteo.com",),
    )
    world.internet.register(honest)
    world.internet.register(shady)
    for domain in ("news.example", "sports.example"):
        world.internet.register(
            ContentSite(domain, tracker_domains=("doubleclick.net",))
        )
    sheriff = PriceSheriff(world, n_measurement_servers=2, ipc_sites=IPCS)

    # 1. the user base
    users = []
    for i in range(6):
        browser = world.make_browser("ES", "Madrid")
        for v in range(12):
            domain = "news.example" if i % 2 else "sports.example"
            browser.visit(f"http://{domain}/p{v}")
        users.append(sheriff.install_addon(browser,
                                           history_donation_opt_in=True))
    return world, sheriff, honest, shady, users


def test_full_story(story):
    world, sheriff, honest, shady, users = story
    initiator = users[0]

    # 2. price checks: honest store clean, shady store caught
    results = []
    for store, expect_diff in ((honest, False), (shady, True)):
        result = initiator.check_price(
            store.product_url(store.catalog.products[0].product_id)
        )
        results.append(result)
        assert (result.normalized_spread() > 0.01) == expect_diff
    assert domains_with_difference(results) == ["shady.example"]
    assert sheriff.coordinator.pending_jobs() == 0

    # users got profiled by the trackers while browsing
    tid = users[1].browser.cookies.value("doubleclick.net", "tid")
    assert tid is not None
    profile = world.ecosystem.get("doubleclick.net").profile(tid)
    assert sum(profile.values()) >= 12

    # 3. clustering + doppelganger construction
    outcome = sheriff.run_doppelganger_clustering(
        ["news.example", "sports.example", "honest.example"],
        k=2, max_iterations=4,
    )
    assert len(outcome.doppelgangers) == 2
    news_lovers = {
        u.peer_id for i, u in enumerate(users) if i % 2 == 1
    }
    clusters = {outcome.mapping[p] for p in news_lovers}
    assert len(clusters) == 1  # same interests → same doppelganger

    # 4. budget exhaustion → anonymous doppelganger swap
    worker = users[2]
    for product in honest.catalog.products[:4]:
        worker.browser.visit(honest.product_url(product.product_id))
    handler = worker.peer_handler
    handler.serve_remote_request(
        honest.product_url(honest.catalog.products[4].product_id)
    )
    reply = handler.serve_remote_request(
        honest.product_url(honest.catalog.products[5].product_id)
    )
    assert reply["used_doppelganger"]
    sources = sheriff.coordinator.state_request_sources
    assert sources and all(s.startswith("relay-") for s in sources)

    # 5. the database holds no PII
    audit = run_pii_audit(sheriff.db, sheriff.whitelist)
    assert audit.clean

    # 6. the watchdog keeps flagging the discriminator
    watchdog = Watchdog(initiator, world.geodb)
    url = shady.product_url(shady.catalog.products[1].product_id)
    watchdog.add_watch(url)
    alerts = watchdog.run_cycle()
    assert [a.kind for a in alerts] == ["variation-detected"]
    assert alerts[0].classification == "location"
