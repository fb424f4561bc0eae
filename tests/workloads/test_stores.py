"""Tests for the calibrated retailer roster."""

import pytest

from repro.core.sheriff import SheriffWorld
from repro.net.events import SECONDS_PER_DAY
from repro.web.pricing import RequestContext
from repro.workloads.stores import (
    build_named_stores,
    extra_pd_store_specs,
    named_store_specs,
    uniform_store_specs,
)


@pytest.fixture
def world():
    return SheriffWorld.create(seed=21)


@pytest.fixture
def stores(world):
    return build_named_stores(world)


def ctx(world, country, time=0.0, cookies=None, sid=None):
    cookies = dict(cookies or {})
    if sid:
        cookies["sid"] = sid
    return RequestContext(
        time=time, location=world.geodb.make_location(country),
        first_party_cookies=cookies,
    )


class TestRoster:
    def test_all_paper_domains_present(self, stores):
        for domain in (
            "digitalrev.com", "steampowered.com", "abercrombie.com",
            "luisaviaroma.com", "overstock.com", "suitsupply.com",
            "jcpenney.com", "chegg.com", "amazon.com", "anntaylor.com",
        ):
            assert domain in stores

    def test_iq280_on_digitalrev(self, stores):
        assert stores["digitalrev.com"].catalog.get("digitalrev-iq280") is not None

    def test_jcpenney_flagships(self, stores):
        for pid in ("jcp-refrigerator", "jcp-mud-mask", "jcp-sofa"):
            assert stores["jcpenney.com"].catalog.get(pid) is not None

    def test_spec_counts(self):
        assert len(named_store_specs()) == 15
        assert len(extra_pd_store_specs(10)) == 10
        assert len(uniform_store_specs(25)) == 25


class TestCrossBorderCalibration:
    def test_digitalrev_iq280_ordering(self, world, stores):
        """Sect. 6.2: EU ~€34.5k < US ~€41k < CA ~€45k < BR ~€46k."""
        store = stores["digitalrev.com"]
        product = store.catalog.get("digitalrev-iq280")
        prices = {
            c: store.pricing.quote(product, ctx(world, c)).amount_eur
            for c in ("ES", "US", "CA", "BR")
        }
        assert prices["ES"] < prices["US"] < prices["CA"] < prices["BR"]
        assert prices["BR"] - prices["ES"] > 10_000  # the >€10k gap

    def test_steam_regional_discount(self, world, stores):
        store = stores["steampowered.com"]
        ratios = []
        for product in store.catalog:
            us = store.pricing.quote(product, ctx(world, "US")).amount_eur
            br = store.pricing.quote(product, ctx(world, "BR")).amount_eur
            ratios.append(us / br)
        assert max(ratios) > 1.8  # the ×2.55-flavoured extremes

    def test_regional_factors_vary_per_product(self, world, stores):
        store = stores["abercrombie.com"]
        factors = set()
        for product in store.catalog:
            es = store.pricing.quote(product, ctx(world, "ES")).amount_eur
            jp = store.pricing.quote(product, ctx(world, "JP")).amount_eur
            factors.add(round(jp / es, 3))
        assert len(factors) > 3  # per-product magnitudes (Table 3)


class TestWithinCountryCalibration:
    def test_amazon_vat_for_logged_in(self, world, stores):
        store = stores["amazon.com"]
        product = store.catalog.products[0]
        guest = store.pricing.quote(product, ctx(world, "DE")).amount_eur
        logged = store.pricing.quote(
            product, ctx(world, "DE", cookies={"account": "tok"})
        ).amount_eur
        gap = logged / guest - 1.0
        assert any(abs(gap - rate) < 0.005 for rate in (0.19, 0.07))

    def test_jcpenney_uk_sticky_seven_percent(self, world, stores):
        """Fig. 13 right: UK clients sit consistently high or low, 7% apart."""
        store = stores["jcpenney.com"]
        product = store.catalog.products[0]
        t = 5 * SECONDS_PER_DAY
        client_factor = {}
        for client in range(40):  # P(high) ≈ 1/6: enough for both buckets
            quotes = [
                store.pricing.quote(
                    product, ctx(world, "GB", time=t + i, sid=f"c{client}")
                ).amount_eur
                for i in range(4)
            ]
            assert len(set(quotes)) == 1  # sticky: constant per client
            client_factor[client] = quotes[0]
        values = sorted(set(round(v, 2) for v in client_factor.values()))
        assert len(values) == 2
        assert values[1] / values[0] == pytest.approx(1.07, abs=0.002)

    def test_jcpenney_france_small_and_nonsticky(self, world, stores):
        store = stores["jcpenney.com"]
        product = store.catalog.products[1]
        t = 5 * SECONDS_PER_DAY
        quotes = {
            store.pricing.quote(
                product, ctx(world, "FR", time=t + i * 3600, sid="x")
            ).amount_eur
            for i in range(12)
        }
        base = min(quotes)
        assert max(quotes) / base - 1.0 < 0.02
        assert len(quotes) >= 2

    def test_chegg_no_ab_in_france(self, world, stores):
        store = stores["chegg.com"]
        product = store.catalog.products[0]
        t = 3 * SECONDS_PER_DAY
        quotes = {
            store.pricing.quote(
                product, ctx(world, "FR", time=t + i, sid=f"c{i}")
            ).amount_eur
            for i in range(10)
        }
        assert len(quotes) == 1  # Table 5: France 0.0%

    def test_chegg_spain_scattered_3_to_7(self, world, stores):
        store = stores["chegg.com"]
        product = store.catalog.products[0]
        t = 3 * SECONDS_PER_DAY
        quotes = {
            store.pricing.quote(
                product, ctx(world, "ES", time=t + i, sid=f"c{i}")
            ).amount_eur
            for i in range(60)
        }
        spread = max(quotes) / min(quotes) - 1.0
        assert 0.03 <= spread <= 0.08


class TestTemporalCalibration:
    def test_jcpenney_prices_move_daily(self, world, stores):
        store = stores["jcpenney.com"]
        product = store.catalog.get("jcp-refrigerator")
        prices = {
            store.pricing.quote(
                product, ctx(world, "US", time=d * SECONDS_PER_DAY)
            ).amount_eur
            for d in range(20)
        }
        assert len(prices) > 10  # near-daily changes

    def test_mean_reversion_keeps_yearlong_prices_bounded(self, world, stores):
        store = stores["chegg.com"]
        product = store.catalog.products[0]
        early = store.pricing.quote(product, ctx(world, "US", time=0.0)).amount_eur
        late = store.pricing.quote(
            product, ctx(world, "US", time=390 * SECONDS_PER_DAY)
        ).amount_eur
        assert 0.5 <= late / early <= 2.0
