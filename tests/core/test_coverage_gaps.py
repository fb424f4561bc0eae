"""Tests for paths not exercised elsewhere."""

import random

import pytest

from repro.currency.detect import detect_price, format_price
from repro.net.events import EventLoop


class TestEventLoopBounds:
    def test_run_with_max_events(self):
        loop = EventLoop()
        seen = []
        for t in (1.0, 2.0, 3.0):
            loop.call_at(t, lambda t=t: seen.append(t))
        loop.run(max_events=2)
        assert seen == [1.0, 2.0]
        loop.run()
        assert seen == [1.0, 2.0, 3.0]


class TestCurrencySuffixStyles:
    @pytest.mark.parametrize(
        "amount,code",
        [(6283.0, "SEK"), (123.45, "DKK"), (99.0, "NOK")],
    )
    def test_symbol_suffix_amount_roundtrip(self, amount, code):
        """'6,283 kr'-style rendering: amount always survives; 'kr' is
        ambiguous across the Nordic currencies so the code may be a
        candidate rather than the guess."""
        text = format_price(amount, code, style="symbol_suffix")
        result = detect_price(text)
        assert result.amount == pytest.approx(amount)
        assert code == result.currency or code in result.candidates

    def test_space_grouped_suffix(self):
        result = detect_price("18 215 Kč")
        assert (result.currency, result.amount) == ("CZK", 18215.0)


class TestBrowserRawFetch:
    def test_fetch_raw_leaves_state_untouched(self, internet, ecosystem,
                                              clock, geodb, store):
        from repro.browser.browser import Browser
        from repro.web.pricing import RequestContext

        browser = Browser(internet=internet, ecosystem=ecosystem,
                          clock=clock, location=geodb.make_location("ES"))
        ctx = RequestContext(time=0.0, location=browser.location)
        url = store.product_url(store.catalog.products[0].product_id)
        response = browser.fetch_raw(url, ctx)
        assert response.status == 200
        assert len(browser.history) == 0
        assert len(browser.cookies) == 0
        assert browser.cache == {}


class TestCatalogIteration:
    def test_iter_and_products_agree(self):
        from repro.web.catalog import make_catalog

        catalog = make_catalog("it.example", size=5, rng=random.Random(0))
        assert [p.product_id for p in catalog] == [
            p.product_id for p in catalog.products
        ]

    def test_products_returns_copy(self):
        from repro.web.catalog import make_catalog

        catalog = make_catalog("it.example", size=3, rng=random.Random(0))
        catalog.products.clear()
        assert len(catalog) == 3
