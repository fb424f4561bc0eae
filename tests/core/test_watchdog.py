"""Tests for the watchdog service."""

import random

import pytest

from repro.core.errors import AdmissionDenied
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.core.watchdog import Watchdog
from repro.web.catalog import make_catalog
from repro.web.pricing import (
    CountryMultiplierPricing,
    PricingPolicy,
)
from repro.web.store import EStore

IPCS = (("ES", "Madrid", 1.0), ("US", "Tennessee", 1.0), ("JP", "Tokyo", 1.0))


class SwitchablePricing(PricingPolicy):
    """Uniform until flipped; then country-discriminating."""

    def __init__(self):
        self.discriminating = False
        self._pd = CountryMultiplierPricing({"JP": 1.3})

    def adjustments(self, product, ctx):
        if self.discriminating:
            return self._pd.adjustments(product, ctx)
        return []


@pytest.fixture
def setup():
    world = SheriffWorld.create(seed=71)
    policy = SwitchablePricing()
    store = EStore(
        domain="watched.example", country_code="ES",
        catalog=make_catalog("watched.example", size=4, rng=random.Random(1)),
        pricing=policy, geodb=world.geodb, rates=world.rates,
    )
    world.internet.register(store)
    sheriff = PriceSheriff(world, n_measurement_servers=1, ipc_sites=IPCS)
    addon = sheriff.install_addon(world.make_browser("ES", "Madrid"))
    watchdog = Watchdog(addon, world.geodb)
    url = store.product_url(store.catalog.products[0].product_id)
    return world, store, policy, watchdog, url


class TestWatchlist:
    def test_duplicate_add_is_idempotent(self, setup):
        _, _, _, watchdog, url = setup
        watchdog.add_watch(url)
        watchdog.add_watch(url)
        assert len(watchdog._watches) == 1


class TestAlerts:
    def test_quiet_product_no_alerts(self, setup):
        world, _, _, watchdog, url = setup
        watchdog.add_watch(url)
        assert watchdog.run_cycle() == []
        world.clock.advance_days(1)
        assert watchdog.run_cycle() == []

    def test_variation_detected_on_first_bad_cycle(self, setup):
        world, _, policy, watchdog, url = setup
        policy.discriminating = True
        watchdog.add_watch(url)
        alerts = watchdog.run_cycle()
        assert len(alerts) == 1
        assert alerts[0].kind == "variation-detected"
        assert alerts[0].classification == "location"
        assert "variation detected" in alerts[0].describe()

    def test_classification_change_alert(self, setup):
        world, _, policy, watchdog, url = setup
        watchdog.add_watch(url)
        watchdog.run_cycle()  # baseline: none
        policy.discriminating = True
        world.clock.advance_days(1)
        alerts = watchdog.run_cycle()
        assert len(alerts) == 1
        assert alerts[0].kind == "classification-change"
        assert alerts[0].previous_classification == "none"
        assert alerts[0].classification == "location"
        assert "→" in alerts[0].describe()

    def test_no_repeat_alert_for_stable_state(self, setup):
        world, _, policy, watchdog, url = setup
        policy.discriminating = True
        watchdog.add_watch(url)
        watchdog.run_cycle()
        world.clock.advance_days(1)
        assert watchdog.run_cycle() == []  # still "location", same spread

    def test_spread_change_alert(self, setup):
        world, _, policy, watchdog, url = setup
        policy.discriminating = True
        watchdog.add_watch(url)
        watchdog.run_cycle()
        policy._pd = CountryMultiplierPricing({"JP": 1.6})  # escalation
        world.clock.advance_days(1)
        alerts = watchdog.run_cycle()
        assert len(alerts) == 1
        assert alerts[0].kind == "spread-change"
        assert alerts[0].spread > 0.5

    def test_history_accumulates(self, setup):
        world, _, policy, watchdog, url = setup
        watchdog.add_watch(url)
        watchdog.run_cycle()
        world.clock.advance_days(1)
        policy.discriminating = True
        watchdog.run_cycle()
        history = watchdog.history(url)
        assert len(history) == 2
        assert history[0][1] == "none"
        assert history[1][1] == "location"
        assert history[0][0] < history[1][0]


class TestFailedCheck:
    GONE = "http://gone.example/product/p-1"

    def test_one_failed_check_keeps_the_other_alerts(self, setup):
        world, _, policy, watchdog, url = setup
        policy.discriminating = True
        watchdog.add_watch(url)
        watchdog.add_watch(self.GONE)
        alerts = watchdog.run_cycle()
        assert [(a.url, a.kind) for a in alerts] == [
            (url, "variation-detected"), (self.GONE, "check-failed"),
        ]
        failed = alerts[1]
        assert failed.error and "price check failed" in failed.describe()
        assert failed.classification is None and failed.spread is None
        assert watchdog.history(self.GONE) == []
        # the discriminating product's alert was raised once, and is not
        # raised again once the bad URL is gone
        del watchdog._watches[self.GONE]
        world.clock.advance_days(1)
        assert watchdog.run_cycle() == []

    def test_failed_check_leaves_state_as_it_was(self, setup):
        world, _, policy, watchdog, url = setup
        watchdog.add_watch(url)
        watchdog.run_cycle()  # baseline: none
        real_check = watchdog._addon.check_price

        def denied(url):
            raise AdmissionDenied(url, "not whitelisted")

        watchdog._addon.check_price = denied
        world.clock.advance_days(1)
        (alert,) = watchdog.run_cycle()
        assert alert.kind == "check-failed"
        assert alert.previous_classification == "none"
        assert len(watchdog.history(url)) == 1
        watchdog._addon.check_price = real_check
        policy.discriminating = True
        world.clock.advance_days(1)
        (alert,) = watchdog.run_cycle()
        assert alert.kind == "classification-change"
        assert alert.previous_classification == "none"

    def test_other_exceptions_propagate(self, setup):
        _, _, _, watchdog, url = setup
        watchdog.add_watch(url)

        def broken(_url):
            raise RuntimeError("bug")

        watchdog._addon.check_price = broken
        with pytest.raises(RuntimeError, match="bug"):
            watchdog.run_cycle()
