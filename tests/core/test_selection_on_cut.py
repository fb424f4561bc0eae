"""The add-on selects the price on the page's cut, once per tag skeleton.

Three claims:

* **same pick** — :func:`select_tags_path` with the add-on's selector
  gives the Tags Path and text the tree gives
  (``tests/oracles/tagspath_legacy.build_selection``: parse, select,
  walk), on every store layout, price notation, product and visitor,
  memo cold or warm, and refuses the same pages with the same error;
* **no tree** — a whole price check runs with the tokenizer every
  :func:`repro.web.html.parse` goes through disabled;
* **once per skeleton** — pages that share their tags are scanned once,
  each read with its own text, and text outside the root is refused
  per page, not per skeleton.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tagspath
from repro.core.addon import SheriffAddon
from repro.core.errors import PriceSelectionError
from repro.core.tagspath import (
    EXTRACTION_MEMO_PAGE_MAX,
    _selections,
    clear_extraction_memo,
    select_tags_path,
)
from repro.currency.detect import detect_price
from repro.currency.rates import ExchangeRateProvider
from repro.net.geo import GeoDatabase
from repro.web import html as html_mod
from repro.web.catalog import make_catalog
from repro.web.html import HTMLParseError
from repro.web.pricing import RequestContext, UniformPricing
from repro.web.store import PRICE_STYLES, EStore

from tests.oracles import tagspath_legacy

_GEODB = GeoDatabase()
_RATES = ExchangeRateProvider()
_SELECT = SheriffAddon.select_price_element


def _page(layout_seed, style, product_index, nonce):
    store = EStore(
        domain=f"cut{layout_seed}.example",
        country_code="ES",
        catalog=make_catalog("cut.example", size=6, rng=random.Random(layout_seed)),
        pricing=UniformPricing(),
        geodb=_GEODB,
        rates=_RATES,
        layout_seed=layout_seed,
    )
    store.price_style = style
    ctx = RequestContext(
        time=0.0,
        location=_GEODB.make_location(("ES", "US", "GB", "JP")[nonce % 4]),
        request_nonce=nonce,
    )
    return store.fetch(store.catalog.products[product_index].path, ctx)


def _outcome(select, html):
    """The pick, or the type of the error it raised."""
    try:
        return select(html)
    except (HTMLParseError, PriceSelectionError) as exc:
        return type(exc)


def _on_cut(html):
    return select_tags_path(html, _SELECT)


@given(
    layout_seed=st.integers(0, 300),
    style=st.sampled_from(PRICE_STYLES),
    product_index=st.integers(0, 5),
    nonces=st.lists(st.integers(0, 40), min_size=1, max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_same_pick_as_the_tree(layout_seed, style, product_index, nonces):
    clear_extraction_memo()
    for nonce in nonces:  # the first page misses the memo, the rest may hit
        response = _page(layout_seed, style, product_index, nonce)
        path, text = _on_cut(response.html)
        assert (path, text) == tagspath_legacy.build_selection(response.html)
        assert path.target.startswith("span.")
        assert detect_price(text).amount == pytest.approx(response.displayed_amount)


_SOUP = st.lists(
    st.sampled_from([
        "<html>", "</html>", "<body>", "</body>", '<div class="product">',
        '<div class="product main">', '<p class="product">', "<div>", "</div>",
        "</p>", '<span class="price">', '<span class="amount">',
        '<span class="sale-price x">', "<span>", "</span>", "<span/>",
        '<span class="price"/>', "<br>", "<!-- c -->", "<!DOCTYPE html>",
        "<1>", "EUR 9.99", "$5", " ", "\n", "x", "<",
    ]),
    max_size=24,
).map("".join)


@given(html=_SOUP)
@settings(max_examples=500, deadline=None)
def test_same_pick_or_same_refusal_on_soup(html):
    """Cold, then warm: the pick or the error type equals the tree's."""
    expected = _outcome(tagspath_legacy.build_selection, html)
    clear_extraction_memo()
    assert _outcome(_on_cut, html) == expected
    assert _outcome(_on_cut, html) == expected


class TestNoTree:
    def test_a_price_check_never_tokenizes(self, world, sheriff, monkeypatch):
        """Every parse goes through ``tokenize``; a check needs neither."""
        def no_tree(html):
            raise AssertionError("a price check built a tree")

        monkeypatch.setattr(html_mod, "tokenize", no_tree)
        addon = sheriff.install_addon(world.make_browser("ES", "Madrid"))
        store = world.internet.site("uniform.example")
        result = addon.check_price(store.product_url(store.catalog.products[0].product_id))
        assert result.rows and all(row.ok for row in result.rows)


class TestOncePerSkeleton:
    def _family(self):
        """Pages of one product that share their tags and not their text."""
        pages = [_page(11, PRICE_STYLES[0], 2, nonce) for nonce in range(12)]
        by_skeleton = {}
        for response in pages:
            skeleton = html_mod.split_tags(response.html)[1]
            by_skeleton.setdefault(skeleton, {})[response.html] = response
        family = list(max(by_skeleton.values(), key=len).values())
        assert len(family) >= 2
        return family

    def test_one_scan_per_skeleton(self, monkeypatch):
        family = self._family()
        scans = []
        real_scan = tagspath._scan

        def counting_scan(tags, target):
            scans.append(target)
            return real_scan(tags, target)

        monkeypatch.setattr(tagspath, "_scan", counting_scan)
        clear_extraction_memo()
        for response in family:
            assert _on_cut(response.html) == tagspath_legacy.build_selection(response.html)
        assert scans == [None]

    def test_text_outside_the_root_is_refused_on_a_hit(self):
        page = self._family()[0].html
        clear_extraction_memo()
        _on_cut(page)
        trailing = page + "\nstray text"
        with pytest.raises(HTMLParseError):
            tagspath_legacy.build_selection(trailing)
        with pytest.raises(HTMLParseError):
            _on_cut(trailing)
        assert len(_selections) == 1

    def test_the_selector_is_part_of_the_key(self):
        page = self._family()[0].html

        def root(elements):
            return elements[0]

        clear_extraction_memo()
        price_path, _ = _on_cut(page)
        root_path, root_text = select_tags_path(page, root)
        assert price_path.target.startswith("span.")
        assert root_path.target == "html"
        assert root_text != _on_cut(page)[1]
        assert len(_selections) == 2

    def test_oversized_skeletons_are_not_kept_and_clearing_forgets(self):
        wide = ('<html><body><div class="product"><span class="price">EUR 1</span>'
                + "<br>" * (EXTRACTION_MEMO_PAGE_MAX // 4) + "</div></body></html>")
        clear_extraction_memo()
        assert _on_cut(wide)[1] == "EUR 1"
        assert not _selections
        _on_cut(self._family()[0].html)
        assert _selections
        clear_extraction_memo()
        assert not _selections
