"""The vantage-point-locale heuristic for ambiguous currency symbols.

A geo-localizing store shows "$41,652" to Canadian vantage points; the
bare detector can only guess USD (with the red asterisk).  The
Measurement server knows the page was fetched from Canada, so it
prefers CAD among the candidates — without the heuristic the false
conversion fabricates a huge phantom price difference.
"""

import random

import pytest

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.web.catalog import make_catalog
from repro.web.pricing import UniformPricing
from repro.web.store import EStore

IPCS = (
    ("ES", "Madrid", 1.0),
    ("CA", "Ontario", 1.0),
    ("JP", "Tokyo", 1.0),
    ("HK", "Hong Kong", 1.0),
    ("AU", "Sydney", 1.0),
)


@pytest.fixture
def setup():
    world = SheriffWorld.create(seed=37)
    store = EStore(
        domain="geo-currency.example", country_code="US",
        catalog=make_catalog("geo-currency.example", size=4,
                             rng=random.Random(2)),
        pricing=UniformPricing(),
        geodb=world.geodb, rates=world.rates,
        currency_strategy="geo",  # every vantage sees its own currency
    )
    store.price_style = "symbol"  # bare "$"/"¥": the ambiguous case
    world.internet.register(store)
    sheriff = PriceSheriff(world, n_measurement_servers=1, ipc_sites=IPCS)
    addon = sheriff.install_addon(world.make_browser("ES", "Madrid"))
    return world, store, addon


class TestDisambiguation:
    def test_dollar_rows_resolved_to_local_currency(self, setup):
        world, store, addon = setup
        result = addon.check_price(
            store.product_url(store.catalog.products[0].product_id)
        )
        by_country = {r.country: r for r in result.rows if r.kind == "IPC"}
        assert by_country["CA"].detected_currency == "CAD"
        assert by_country["HK"].detected_currency == "HKD"
        assert by_country["AU"].detected_currency == "AUD"
        assert by_country["JP"].detected_currency == "JPY"

    def test_low_confidence_flag_preserved(self, setup):
        """The asterisk still shows: the heuristic is a guess too."""
        world, store, addon = setup
        result = addon.check_price(
            store.product_url(store.catalog.products[0].product_id)
        )
        ca_row = next(r for r in result.rows if r.country == "CA")
        assert ca_row.low_confidence

    def test_no_phantom_price_difference(self, setup):
        """A uniform geo-currency store must show no spread once the
        symbols are disambiguated correctly."""
        world, store, addon = setup
        result = addon.check_price(
            store.product_url(store.catalog.products[0].product_id)
        )
        assert result.normalized_spread() <= 0.01

    def test_unambiguous_detection_untouched(self, setup):
        world, store, addon = setup
        result = addon.check_price(
            store.product_url(store.catalog.products[0].product_id)
        )
        es_row = next(r for r in result.rows if r.country == "ES")
        # € is unique: high confidence, no asterisk
        assert es_row.detected_currency == "EUR"
        assert not es_row.low_confidence
