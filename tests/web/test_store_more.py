"""Additional store behaviours: display decimals, search basics."""

import random

import pytest

from repro.currency.rates import ExchangeRateProvider
from repro.net.geo import GeoDatabase
from repro.web.catalog import make_catalog
from repro.web.pricing import RequestContext, UniformPricing
from repro.web.store import EStore


@pytest.fixture
def geodb():
    return GeoDatabase()


def build_store(geodb, **kwargs):
    defaults = dict(
        domain="more.example", country_code="ES",
        catalog=make_catalog("more.example", size=6, rng=random.Random(1)),
        pricing=UniformPricing(), geodb=geodb,
        rates=ExchangeRateProvider(),
    )
    defaults.update(kwargs)
    return EStore(**defaults)


def ctx(geodb, country="ES"):
    return RequestContext(time=0.0, location=geodb.make_location(country))


class TestDisplayDecimals:
    def test_forced_integer_display(self, geodb):
        store = build_store(geodb, display_decimals=0)
        response = store.fetch(f"/product/{store.catalog.products[0].product_id}", ctx(geodb))
        assert response.displayed_amount == int(response.displayed_amount)

    def test_currency_default_decimals(self, geodb):
        store = build_store(geodb, currency_strategy="geo")
        product = store.catalog.products[0]
        response = store.fetch(f"/product/{product.product_id}", ctx(geodb, "JP"))
        # JPY has 0 decimals by default
        assert response.displayed_currency == "JPY"
        assert response.displayed_amount == int(response.displayed_amount)


class TestRequestLog:
    def test_log_records_time_key_product(self, geodb):
        store = build_store(geodb)
        product = store.catalog.products[0]
        context = ctx(geodb)
        store.fetch(f"/product/{product.product_id}", context)
        time, key, product_id = store.request_log[-1]
        assert time == 0.0
        assert key == context.location.ip  # anonymous → IP-keyed
        assert product_id == product.product_id
