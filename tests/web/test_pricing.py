"""Tests for the pricing policies."""

import pytest

from repro.net.events import SECONDS_PER_DAY
from repro.net.geo import GeoDatabase
from repro.web.catalog import Product
from repro.web.pricing import (
    ABTestPricing,
        CompositePricing,
    CountryMultiplierPricing,
    PdiPdPricing,
    RequestContext,
    TemporalDriftPricing,
    UniformPricing,
    VatInclusivePricing,
    stable_rng,
)
from repro.web.trackers import TrackerEcosystem


@pytest.fixture
def geodb():
    return GeoDatabase()


@pytest.fixture
def product():
    return Product("p-1", "Test Camera", "electronics", 1000.0)


def ctx_for(geodb, country, time=0.0, cookies=None, tracker_cookies=None, nonce=0):
    return RequestContext(
        time=time,
        location=geodb.make_location(country),
        first_party_cookies=cookies or {},
        tracker_cookies=tracker_cookies or {},
        request_nonce=nonce,
    )


class TestUniform:
    def test_no_adjustments(self, geodb, product):
        quote = UniformPricing().quote(product, ctx_for(geodb, "ES"))
        assert quote.amount_eur == product.base_price_eur
        assert quote.adjustments == ()
        assert factor(quote) == 1.0


class TestCountryMultiplier:
    def test_multiplier_applied(self, geodb, product):
        policy = CountryMultiplierPricing({"CA": 1.30})
        quote = policy.quote(product, ctx_for(geodb, "CA"))
        assert quote.amount_eur == pytest.approx(1300.0)
        assert quote.adjustments[0].label == "country:CA"

    def test_default_for_other_countries(self, geodb, product):
        policy = CountryMultiplierPricing({"CA": 1.30}, default=1.1)
        quote = policy.quote(product, ctx_for(geodb, "ES"))
        assert quote.amount_eur == pytest.approx(1100.0)

    def test_identity_factor_produces_no_adjustment(self, geodb, product):
        policy = CountryMultiplierPricing({"ES": 1.0})
        quote = policy.quote(product, ctx_for(geodb, "ES"))
        assert quote.adjustments == ()


class TestVat:
    def test_guest_sees_base_price(self, geodb, product):
        policy = VatInclusivePricing(geodb)
        quote = policy.quote(product, ctx_for(geodb, "ES"))
        assert quote.amount_eur == 1000.0

    def test_logged_in_pays_standard_vat(self, geodb, product):
        policy = VatInclusivePricing(geodb)
        quote = policy.quote(product, ctx_for(geodb, "ES", cookies={"account": "x"}))
        assert quote.amount_eur == pytest.approx(1210.0)

    def test_reduced_category(self, geodb):
        book = Product("b-1", "Textbook", "books", 100.0)
        policy = VatInclusivePricing(geodb)
        quote = policy.quote(book, ctx_for(geodb, "ES", cookies={"account": "x"}))
        assert quote.amount_eur == pytest.approx(110.0)  # 10% reduced rate

    def test_zero_vat_country(self, geodb, product):
        policy = VatInclusivePricing(geodb)
        quote = policy.quote(product, ctx_for(geodb, "HK", cookies={"account": "x"}))
        assert quote.amount_eur == 1000.0

    def test_discrete_gap_matches_vat_scale(self, geodb, product):
        """The amazon.com signature: in-country gap == the VAT rate."""
        policy = VatInclusivePricing(geodb)
        guest = policy.quote(product, ctx_for(geodb, "DE"))
        logged = policy.quote(product, ctx_for(geodb, "DE", cookies={"account": "x"}))
        gap = (logged.amount_eur - guest.amount_eur) / guest.amount_eur
        assert gap == pytest.approx(0.19)


class TestABTest:
    def test_deltas_drawn_from_set(self, geodb, product):
        policy = ABTestPricing(deltas=(-0.05, 0.0, 0.05))
        seen = set()
        for i in range(50):
            quote = policy.quote(product, ctx_for(geodb, "FR", time=float(i)))
            seen.add(round(factor(quote), 3))
        assert seen <= {0.95, 1.0, 1.05}
        assert len(seen) > 1

    def test_sticky_buckets_constant_per_client(self, geodb, product):
        policy = ABTestPricing(deltas=(-0.07, 0.07), sticky=True)
        ctx = ctx_for(geodb, "GB", cookies={"sid": "client-a"})
        factors = {
            factor(policy.quote(product, RequestContext(
                time=float(t), location=ctx.location,
                first_party_cookies={"sid": "client-a"},
            )))
            for t in range(20)
        }
        assert len(factors) == 1

    def test_sticky_buckets_differ_across_clients(self, geodb, product):
        policy = ABTestPricing(deltas=(-0.07, 0.07), sticky=True)
        factors = set()
        for client in range(30):
            ctx = RequestContext(
                time=0.0,
                location=geodb.make_location("GB"),
                first_party_cookies={"sid": f"client-{client}"},
            )
            factors.add(quote_factor(policy, product, ctx))
        assert len(factors) == 2

    def test_deterministic_given_same_inputs(self, geodb, product):
        policy = ABTestPricing(deltas=(-0.05, 0.05))
        loc = geodb.make_location("FR")
        ctx = RequestContext(time=5.0, location=loc, first_party_cookies={"sid": "c"})
        assert policy.quote(product, ctx).amount_eur == policy.quote(product, ctx).amount_eur

    def test_empty_deltas_rejected(self):
        with pytest.raises(ValueError):
            ABTestPricing(deltas=())


class TestTemporalDrift:
    def test_factor_starts_at_one(self):
        policy = TemporalDriftPricing()
        assert policy.factor_at("p-1", 0) == 1.0

    def test_downward_trend(self, geodb, product):
        policy = TemporalDriftPricing(daily_sigma=0.0, trend=-0.01, jump_prob=0.0)
        late_ctx = ctx_for(geodb, "ES", time=30 * SECONDS_PER_DAY)
        quote = policy.quote(product, late_ctx)
        assert quote.amount_eur < product.base_price_eur

    def test_same_day_same_price(self, geodb, product):
        policy = TemporalDriftPricing()
        t = 10 * SECONDS_PER_DAY
        a = policy.quote(product, ctx_for(geodb, "ES", time=t + 100))
        b = policy.quote(product, ctx_for(geodb, "FR", time=t + 20000))
        assert a.amount_eur == b.amount_eur

    def test_updates_per_day_allows_intraday_change(self, geodb, product):
        policy = TemporalDriftPricing(daily_sigma=0.2, updates_per_day=2, jump_prob=0.0)
        t = 10 * SECONDS_PER_DAY
        morning = policy.quote(product, ctx_for(geodb, "ES", time=t + 100))
        evening = policy.quote(product, ctx_for(geodb, "ES", time=t + 0.6 * SECONDS_PER_DAY))
        assert morning.amount_eur != evening.amount_eur

    def test_jumps_occur(self):
        policy = TemporalDriftPricing(daily_sigma=0.001, trend=0.0, jump_prob=0.5,
                                      jump_scale=0.5)
        factors = [policy.factor_at("p-x", t) for t in range(1, 40)]
        steps = [factors[i] / factors[i - 1] for i in range(1, len(factors))]
        assert any(s > 1.15 or s < 0.87 for s in steps)

    def test_price_floor(self):
        policy = TemporalDriftPricing(daily_sigma=0.0, trend=-0.9, jump_prob=0.0)
        assert policy.factor_at("p-1", 100) >= 0.05


class TestPdiPd:
    def test_triggered_by_profile(self, geodb, product):
        eco = TrackerEcosystem()
        tracker = eco.get("doubleclick.net")
        cookie = tracker.observe(None, "luxury-watches.example")
        for _ in range(3):
            tracker.observe(cookie, "luxury-watches.example")
        policy = PdiPdPricing(eco, ["luxury-watches.example"], markup=0.10, min_hits=3)
        ctx = ctx_for(geodb, "ES", tracker_cookies={"doubleclick.net": cookie})
        assert policy.quote(product, ctx).amount_eur == pytest.approx(1100.0)

    def test_not_triggered_without_profile(self, geodb, product):
        eco = TrackerEcosystem()
        policy = PdiPdPricing(eco, ["luxury-watches.example"])
        quote = policy.quote(product, ctx_for(geodb, "ES"))
        assert quote.amount_eur == 1000.0

    def test_below_min_hits_not_triggered(self, geodb, product):
        eco = TrackerEcosystem()
        tracker = eco.get("criteo.com")
        cookie = tracker.observe(None, "luxury-watches.example")
        policy = PdiPdPricing(eco, ["luxury-watches.example"], min_hits=5)
        ctx = ctx_for(geodb, "ES", tracker_cookies={"criteo.com": cookie})
        assert quote_factor(policy, product, ctx) == 1.0


def factor(quote):
    return quote.amount_eur / quote.base_eur


def quote_factor(policy, product, ctx):
    return factor(policy.quote(product, ctx))


class TestComposite:
    def test_adjustments_multiply(self, geodb, product):
        policy = CompositePricing([
            CountryMultiplierPricing({"CA": 1.30}),
            VatInclusivePricing(geodb),
        ])
        ctx = ctx_for(geodb, "CA", cookies={"account": "x"})
        quote = policy.quote(product, ctx)
        assert quote.amount_eur == pytest.approx(1000.0 * 1.30 * 1.05)
        assert len(quote.adjustments) == 2


def test_stable_rng_reproducible():
    assert stable_rng("a", 1).random() == stable_rng("a", 1).random()
    assert stable_rng("a", 1).random() != stable_rng("a", 2).random()
