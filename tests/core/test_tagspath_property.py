"""Property test: Tags Path extraction survives arbitrary store layouts.

Stores pick their price markup class, notation, nav size, and related
strip shape from a layout seed; whatever a store looks like, a path
recorded on one page variant must extract the *product* price from any
other variant.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tagspath import extract_price_text
from repro.currency.detect import detect_price
from repro.currency.rates import ExchangeRateProvider
from repro.net.geo import GeoDatabase
from repro.web.catalog import make_catalog
from repro.web.html import find_all, parse
from repro.web.pricing import RequestContext, UniformPricing
from repro.web.store import EStore

from tests.oracles.tagspath_legacy import build_tags_path

_GEODB = GeoDatabase()
_RATES = ExchangeRateProvider()


def _ctx(nonce):
    return RequestContext(
        time=0.0,
        location=_GEODB.make_location("ES", "Madrid"),
        request_nonce=nonce,
    )


@given(
    layout_seed=st.integers(0, 500),
    product_index=st.integers(0, 5),
    remote_nonce=st.integers(1, 50),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_extraction_across_layouts(layout_seed, product_index, remote_nonce):
    store = EStore(
        domain="prop.example",
        country_code="ES",
        catalog=make_catalog("prop.example", size=6, rng=random.Random(1)),
        pricing=UniformPricing(),
        geodb=_GEODB,
        rates=_RATES,
        layout_seed=layout_seed,
    )
    product = store.catalog.products[product_index]

    initiator = store.fetch(f"/product/{product.product_id}", _ctx(0))
    doc = parse(initiator.html)
    product_div = find_all(doc, cls="product")[0]
    price_el = find_all(product_div, tag="span", cls=store.price_class)[0]
    path = build_tags_path(doc, price_el)

    remote = store.fetch(f"/product/{product.product_id}", _ctx(remote_nonce))
    text = extract_price_text(remote.html, path)
    assert text is not None
    detected = detect_price(text)
    assert detected.amount == pytest.approx(remote.displayed_amount)
