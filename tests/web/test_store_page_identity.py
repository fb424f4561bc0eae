"""The compiled product page equals the tree-built one, byte for byte.

:class:`repro.web.store.EStore` renders one skeleton per product and
fills three holes per request; ``tests/oracles/store_page_tree.py`` is
the version that built and serialized the whole ``Element`` tree for
every request.  Every page the store can serve must be the same string
either way — the diff store, the Tags-Path extraction and every
benchmark digest hang on it.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tagspath import extract_price_text
from repro.currency.rates import ExchangeRateProvider
from repro.net.geo import GeoDatabase
from repro.web.catalog import Catalog, Product, make_catalog
from repro.web.html import find_all, parse
from repro.web.pricing import CountryMultiplierPricing, RequestContext, UniformPricing
from repro.web.store import PRICE_STYLES, EStore
from repro.workloads.deployment import DeploymentConfig, LiveDeployment
from tests.oracles import store_page_tree as oracle
from tests.oracles.tagspath_legacy import build_tags_path

_GEODB = GeoDatabase()
_RATES = ExchangeRateProvider()
_LOCATIONS = {c: _GEODB.make_location(c) for c in ("ES", "US", "JP", "GB", "SE", "BR")}


def _store(catalog, **kwargs):
    defaults = dict(
        domain="identity.example", country_code="ES", catalog=catalog,
        pricing=UniformPricing(), geodb=_GEODB, rates=_RATES,
        tracker_domains=("doubleclick.net",),
    )
    defaults.update(kwargs)
    return EStore(**defaults)


def _ctx(country="ES", time=0.0, cookies=None, nonce=0):
    return RequestContext(
        time=time, location=_LOCATIONS[country],
        first_party_cookies=cookies or {}, request_nonce=nonce,
    )


def _assert_identical(store, product, ctx):
    page = store.render_product_page(product, ctx)
    assert page == oracle.render_product_page(store, product, ctx)
    return page[0]


class TestDeploymentWorld:
    """Every store of a ``LiveDeployment`` world, as its users see it."""

    def test_every_store_serves_the_oracles_pages(self):
        deployment = LiveDeployment(DeploymentConfig.test_scale())
        deployment.population.build()  # browsing fills the tracker profiles
        clock = deployment.world.clock
        browsers = [addon.browser for addon in deployment.population.addons[:6]]
        assert len({b.location.country for b in browsers}) >= 3
        assert any(b.request_context("any.example").tracker_cookies for b in browsers)
        pages = set()
        for store in deployment.stores.values():
            for product in store.catalog.products[:3]:
                for i, browser in enumerate(browsers):
                    clock.advance(3600.0 * 7)
                    seen = browser.request_context(store.domain)
                    for ctx in (
                        seen,
                        dataclasses.replace(seen, request_nonce=seen.request_nonce + 1),
                        dataclasses.replace(seen, first_party_cookies={"sid": f"s-{i}"}),
                        dataclasses.replace(
                            seen, time=seen.time + 86400.0 * 9,
                            first_party_cookies={"sid": f"s-{i}", "account": f"u-{i}"},
                        ),
                        dataclasses.replace(seen, tracker_cookies={}),
                    ):
                        pages.add(_assert_identical(store, product, ctx))
        # the contexts did vary the pages: a constant page proves nothing
        assert len(pages) > 10 * len(deployment.stores)

    def test_fetch_serves_the_same_page(self):
        deployment = LiveDeployment(DeploymentConfig.test_scale())
        store = deployment.stores["amazon.com"]
        for product in store.catalog.products[:3]:
            for nonce in range(4):
                ctx = _ctx("US", time=50.0 * nonce, cookies={"sid": "abc"}, nonce=nonce)
                expected = oracle.render_product_page(store, product, ctx)
                response = store.fetch(product.path, ctx)
                assert (response.html, response.quote, response.displayed_amount,
                        response.displayed_currency) == expected


@given(
    layout_seed=st.integers(0, 10_000),
    catalog_size=st.integers(1, 6),
    n_trackers=st.integers(0, 3),
    price_style=st.sampled_from(PRICE_STYLES),
    display_decimals=st.sampled_from([None, 0, 1, 2, 3]),
    currency_strategy=st.sampled_from(["local", "geo"]),
    home=st.sampled_from(["ES", "US", "JP"]),
    country=st.sampled_from(sorted(_LOCATIONS)),
    product_index=st.integers(0, 5),
    time=st.floats(0.0, 400 * 86400.0),
    cookies=st.dictionaries(st.sampled_from(["sid", "account"]),
                            st.text("abcdef0123456789", min_size=1, max_size=8)),
    nonce=st.integers(0, 1000),
)
@settings(max_examples=150, deadline=None)
def test_any_store_serves_the_oracles_page(
    layout_seed, catalog_size, n_trackers, price_style, display_decimals,
    currency_strategy, home, country, product_index, time, cookies, nonce,
):
    store = _store(
        make_catalog("identity.example", size=catalog_size, rng=random.Random(layout_seed)),
        country_code=home,
        pricing=CountryMultiplierPricing({"US": 1.25, "JP": 0.9}),
        tracker_domains=("doubleclick.net", "scorecard.example", "px.example")[:n_trackers],
        currency_strategy=currency_strategy,
        layout_seed=layout_seed,
        display_decimals=display_decimals,
    )
    store.price_style = price_style
    product = store.catalog.products[product_index % catalog_size]

    # the add-on records its path on the initiator's own page …
    initiator = store.fetch(product.path, _ctx(home))
    doc = parse(initiator.html)
    product_div = find_all(doc, cls="product")[0]
    path = build_tags_path(doc, find_all(product_div, tag="span", cls=store.price_class)[0])

    # … and any later page is the oracle's, parses, and yields its own price
    ctx = _ctx(country, time=time, cookies=cookies, nonce=nonce)
    expected = oracle.render_product_page(store, product, ctx)
    response = store.fetch(product.path, ctx)
    assert response.html == expected[0]
    assert (response.quote, response.displayed_amount, response.displayed_currency) \
        == expected[1:]
    assert parse(response.html).tag == "html"
    if catalog_size == 1:
        assert '<div class="related"></div>' in response.html
    assert extract_price_text(response.html, path) == store._price_text(
        response.displayed_amount, response.displayed_currency
    )


class TestHolesCannotBeForged:
    """The skeleton is cut at a marker no static string of the page holds."""

    def test_marker_lookalikes_in_names_domain_and_trackers(self):
        nul = "\x00"
        names = [nul, nul * 2, nul * 3 + "x" + nul, "plain", f"a{nul}b{nul * 4}"]
        catalog = Catalog([
            Product(product_id=f"p{nul * i}-{i}", name=name, category=f"c{nul}",
                    base_price_eur=10.0 + i)
            for i, name in enumerate(names)
        ])
        store = _store(
            catalog, domain=f"{nul * 2}shop{nul}.example",
            tracker_domains=(f"{nul}.net", f"t{nul * 5}.net"),
        )
        for product in catalog:
            for nonce in range(6):
                html = _assert_identical(store, product, _ctx("US", nonce=nonce))
                assert html.count(nul) > 0  # the lookalikes are still on the page


class TestPerRequestSettings:
    """What a caller may change after construction is read on every request."""

    def test_price_style_set_after_a_fetch_takes_effect(self):
        store = _store(make_catalog("identity.example", size=4, rng=random.Random(5)))
        product = store.catalog.products[0]
        store.price_style = "iso_tight"
        first = _assert_identical(store, product, _ctx(nonce=1))
        store.price_style = "continental"
        second = _assert_identical(store, product, _ctx(nonce=1))
        assert first != second
        amount = product.base_price_eur
        assert store._price_text(amount, "EUR") in second
        assert store._price_text(amount, "EUR") not in first

    def test_pricing_set_after_a_fetch_takes_effect(self):
        store = _store(make_catalog("identity.example", size=4, rng=random.Random(5)))
        product = store.catalog.products[0]
        ctx = _ctx("US", nonce=2)
        _, _, before, _ = store.render_product_page(product, ctx)
        store.pricing = CountryMultiplierPricing({"US": 2.0})
        html, quote, after, code = store.render_product_page(product, ctx)
        assert after == round(2.0 * before, 2)
        assert store._price_text(after, code) in html
        assert (html, quote, after, code) == oracle.render_product_page(store, product, ctx)

    def test_display_decimals_set_after_a_fetch_takes_effect(self):
        store = _store(make_catalog("identity.example", size=4, rng=random.Random(5)))
        product = store.catalog.products[0]
        first = _assert_identical(store, product, _ctx(nonce=3))
        store.display_decimals = 0
        second = _assert_identical(store, product, _ctx(nonce=3))
        assert first != second

    def test_skeletons_are_compiled_on_first_use(self):
        store = _store(make_catalog("identity.example", size=4, rng=random.Random(5)))
        assert store._pages == {}
        product = store.catalog.products[1]
        store.fetch("/", _ctx())
        store.fetch("/product/nope", _ctx())
        assert store._pages == {}
        store.fetch(product.path, _ctx())
        store.fetch(product.path, _ctx(nonce=1))
        assert list(store._pages) == [product]
