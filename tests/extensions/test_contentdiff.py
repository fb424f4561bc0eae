"""Tests for generalized content-difference detection."""

import random

import pytest

from repro.core.addon import SheriffAddon
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.extensions.contentdiff import (
    ContentObservation,
    ContentVariationReport,
    ContentWatch,
)
from repro.web.catalog import make_catalog
from repro.web.pricing import CountryMultiplierPricing, UniformPricing
from repro.web.store import EStore

IPC_SITES = (
    ("ES", "Madrid", 1.0),
    ("ES", "Barcelona", 1.0),
    ("US", "Tennessee", 1.0),
    ("JP", "Tokyo", 1.0),
)


@pytest.fixture
def setup():
    world = SheriffWorld.create(seed=88)
    localized = EStore(
        domain="localized.example", country_code="US",
        catalog=make_catalog("localized.example", size=4, rng=random.Random(3)),
        pricing=CountryMultiplierPricing({"JP": 1.4}),
        geodb=world.geodb, rates=world.rates, currency_strategy="geo",
    )
    uniform = EStore(
        domain="same.example", country_code="US",
        catalog=make_catalog("same.example", size=4, rng=random.Random(4)),
        pricing=UniformPricing(),
        geodb=world.geodb, rates=world.rates, currency_strategy="local",
    )
    world.internet.register(localized)
    world.internet.register(uniform)
    sheriff = PriceSheriff(world, n_measurement_servers=1, ipc_sites=IPC_SITES)
    return world, sheriff, localized, uniform


def record_price_path(world, store, watch):
    product = store.catalog.products[0]
    url = store.product_url(product.product_id)
    browser = world.make_browser("US", "Tennessee")
    response = browser.visit(url)
    return url, watch.record_path(response.html, SheriffAddon.select_price_element)


class TestContentWatch:
    def test_localized_content_detected(self, setup):
        world, sheriff, localized, _ = setup
        watch = ContentWatch(sheriff)
        url, path = record_price_path(world, localized, watch)
        report = watch.check(url, path)
        # geo currency + country multiplier → per-country variants
        assert not report.is_uniform
        assert report.classification() == "localized"
        assert report.location_consistent()

    def test_uniform_content(self, setup):
        world, sheriff, _, uniform = setup
        watch = ContentWatch(sheriff)
        url, path = record_price_path(world, uniform, watch)
        report = watch.check(url, path)
        assert report.is_uniform
        assert report.classification() == "uniform"

    def test_render(self, setup):
        world, sheriff, localized, _ = setup
        watch = ContentWatch(sheriff)
        url, path = record_price_path(world, localized, watch)
        out = watch.check(url, path).render()
        assert "classification" in out
        assert "variants" in out


class TestClassificationLogic:
    def _report(self, observations):
        return ContentVariationReport(url="u", observations=observations)

    def test_personalized_variation(self):
        report = self._report([
            ContentObservation("a", "ES", "variant-1"),
            ContentObservation("b", "ES", "variant-2"),
            ContentObservation("c", "US", "variant-1"),
        ])
        assert report.classification() == "personalized"
        assert not report.location_consistent()

    def test_localized_variation(self):
        report = self._report([
            ContentObservation("a", "ES", "hola"),
            ContentObservation("b", "ES", "hola"),
            ContentObservation("c", "US", "hello"),
        ])
        assert report.classification() == "localized"

    def test_missing_elements_ignored(self):
        report = self._report([
            ContentObservation("a", "ES", "x1"),
            ContentObservation("b", "US", None),
        ])
        assert report.is_uniform
        assert report.n_variants == 1
