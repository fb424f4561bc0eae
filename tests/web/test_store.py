"""Tests for the e-store simulator."""

import random

import pytest

from repro.currency.detect import detect_price
from repro.currency.rates import ExchangeRateProvider
from repro.net.geo import GeoDatabase
from repro.web.catalog import make_catalog
from repro.web.html import find_all, parse
from repro.web.pricing import CountryMultiplierPricing, RequestContext, UniformPricing
from repro.web.store import EStore


@pytest.fixture
def geodb():
    return GeoDatabase()


@pytest.fixture
def rates():
    return ExchangeRateProvider()


def build_store(geodb, rates, **kwargs):
    rng = random.Random(3)
    catalog = make_catalog("teststore.com", size=8, rng=rng)
    defaults = dict(
        domain="teststore.com",
        country_code="ES",
        catalog=catalog,
        pricing=UniformPricing(),
        geodb=geodb,
        rates=rates,
        tracker_domains=("doubleclick.net",),
    )
    defaults.update(kwargs)
    return EStore(**defaults)


def ctx_for(geodb, country="ES", time=0.0, cookies=None, nonce=0):
    return RequestContext(
        time=time,
        location=geodb.make_location(country),
        first_party_cookies=cookies or {},
        request_nonce=nonce,
    )


class TestPageRendering:
    def test_page_parses(self, geodb, rates):
        store = build_store(geodb, rates)
        product = store.catalog.products[0]
        response = store.fetch(f"/product/{product.product_id}", ctx_for(geodb))
        doc = parse(response.html)
        assert doc.tag == "html"

    def test_product_price_present_and_detectable(self, geodb, rates):
        store = build_store(geodb, rates)
        product = store.catalog.products[0]
        response = store.fetch(f"/product/{product.product_id}", ctx_for(geodb))
        doc = parse(response.html)
        product_div = find_all(doc, cls="product")[0]
        spans = find_all(product_div, tag="span", cls=store.price_class)
        assert len(spans) == 1
        detected = detect_price(spans[0].text())
        assert detected.amount == pytest.approx(response.displayed_amount)

    def test_multiple_prices_on_page(self, geodb, rates):
        """Related products create the decoy prices of Sect. 3.3."""
        store = build_store(geodb, rates)
        product = store.catalog.products[0]
        response = store.fetch(f"/product/{product.product_id}", ctx_for(geodb))
        doc = parse(response.html)
        all_prices = find_all(doc, cls=store.price_class)
        assert len(all_prices) >= 3  # product + at least 2 related

    def test_page_varies_between_fetches(self, geodb, rates):
        store = build_store(geodb, rates)
        product = store.catalog.products[0]
        a = store.fetch(f"/product/{product.product_id}", ctx_for(geodb, nonce=0))
        b = store.fetch(f"/product/{product.product_id}", ctx_for(geodb, nonce=1))
        assert a.html != b.html

    def test_product_price_stable_across_variants(self, geodb, rates):
        store = build_store(geodb, rates)
        product = store.catalog.products[0]
        a = store.fetch(f"/product/{product.product_id}", ctx_for(geodb, nonce=0))
        b = store.fetch(f"/product/{product.product_id}", ctx_for(geodb, nonce=1))
        assert a.displayed_amount == b.displayed_amount

    def test_trackers_embedded(self, geodb, rates):
        store = build_store(geodb, rates)
        product = store.catalog.products[0]
        response = store.fetch(f"/product/{product.product_id}", ctx_for(geodb))
        assert "doubleclick.net" in response.html
        assert response.tracker_domains == ("doubleclick.net",)

    def test_404_for_unknown_product(self, geodb, rates):
        store = build_store(geodb, rates)
        response = store.fetch("/product/nope", ctx_for(geodb))
        assert response.status == 404

    def test_home_page(self, geodb, rates):
        store = build_store(geodb, rates)
        response = store.fetch("/", ctx_for(geodb))
        assert response.status == 200
        assert response.quote is None


class TestCurrencyBehaviour:
    def test_local_strategy_uses_store_currency(self, geodb, rates):
        store = build_store(geodb, rates, currency_strategy="local")
        product = store.catalog.products[0]
        response = store.fetch(f"/product/{product.product_id}", ctx_for(geodb, "US"))
        assert response.displayed_currency == "EUR"

    def test_geo_strategy_uses_client_currency(self, geodb, rates):
        store = build_store(geodb, rates, currency_strategy="geo")
        product = store.catalog.products[0]
        response = store.fetch(f"/product/{product.product_id}", ctx_for(geodb, "US"))
        assert response.displayed_currency == "USD"

    def test_geo_conversion_value(self, geodb, rates):
        store = build_store(geodb, rates, currency_strategy="geo")
        product = store.catalog.products[0]
        response = store.fetch(f"/product/{product.product_id}", ctx_for(geodb, "US"))
        expected = rates.convert(response.quote.amount_eur, "EUR", "USD")
        assert response.displayed_amount == pytest.approx(expected, abs=0.01)

    def test_converter_skew_applied(self, geodb, rates):
        plain = build_store(geodb, rates, currency_strategy="geo")
        skewed = build_store(geodb, rates, currency_strategy="geo", converter_skew=1.02)
        product = plain.catalog.products[0]
        a = plain.fetch(f"/product/{product.product_id}", ctx_for(geodb, "US"))
        b = skewed.fetch(f"/product/{product.product_id}", ctx_for(geodb, "US"))
        assert b.displayed_amount == pytest.approx(a.displayed_amount * 1.02, rel=1e-3)


class TestServerSideState:
    def test_visit_recorded_under_session(self, geodb, rates):
        store = build_store(geodb, rates)
        product = store.catalog.products[0]
        ctx = ctx_for(geodb, cookies={"sid": "user-1"})
        store.fetch(f"/product/{product.product_id}", ctx)
        store.fetch(f"/product/{product.product_id}", ctx)
        assert store.visits_for("user-1")[product.product_id] == 2

    def test_anonymous_visit_keyed_by_ip(self, geodb, rates):
        store = build_store(geodb, rates)
        product = store.catalog.products[0]
        ctx = ctx_for(geodb)
        store.fetch(f"/product/{product.product_id}", ctx)
        assert store.visits_for(ctx.location.ip)[product.product_id] == 1

    def test_session_cookie_issued_once(self, geodb, rates):
        store = build_store(geodb, rates)
        product = store.catalog.products[0]
        first = store.fetch(f"/product/{product.product_id}", ctx_for(geodb))
        assert "sid" in first.set_cookies
        again = store.fetch(f"/product/{product.product_id}", ctx_for(geodb, cookies={"sid": "x"}))
        assert "sid" not in again.set_cookies


class TestPricingIntegration:
    def test_country_multiplier_visible_in_page(self, geodb, rates):
        store = build_store(
            geodb, rates,
            pricing=CountryMultiplierPricing({"CA": 1.5}),
            currency_strategy="local",
        )
        product = store.catalog.products[0]
        es = store.fetch(f"/product/{product.product_id}", ctx_for(geodb, "ES"))
        ca = store.fetch(f"/product/{product.product_id}", ctx_for(geodb, "CA"))
        assert ca.quote.amount_eur == pytest.approx(es.quote.amount_eur * 1.5)
