"""Tests for Tags Path construction and extraction (Sect. 3.3)."""

import random

import pytest

from repro.core.tagspath import MAX_PATH_ENTRIES, extract_price_text
from repro.currency.rates import ExchangeRateProvider
from repro.net.geo import GeoDatabase
from repro.web.catalog import make_catalog
from repro.web.html import Element, find_all, parse, render
from repro.web.pricing import RequestContext, UniformPricing
from repro.web.store import EStore

from tests.oracles import tagspath_legacy
from tests.oracles.tagspath_legacy import TagsPathError, build_tags_path


def paper_example():
    """The simplified page of Fig. 4."""
    doc = Element("html", children=[
        Element("head", children=[Element("title", children=["Hi there"])]),
        Element("body", children=[
            "This is a simple web page",
            Element("div", {"class": "product"}, [
                "Here is the product image",
                Element("img", {"src": "product.jpg"}),
                Element("span", {"class": "price"}, ["$10.00"]),
            ]),
        ]),
    ])
    price = find_all(doc, tag="span", cls="price")[0]
    return doc, price


class TestConstruction:
    def test_paper_example_path(self):
        """Fig. 4: Tags Path = Bottom, </html>, </body>, </div>, <span class='price'>."""
        doc, price = paper_example()
        path = build_tags_path(doc, price)
        assert path.entries == ("html", "body", "div.product")
        assert path.target == "span.price"

    def test_element_not_in_document(self):
        doc, _ = paper_example()
        stranger = Element("span", {"class": "price"})
        with pytest.raises(TagsPathError):
            build_tags_path(doc, stranger)

    def test_path_length(self):
        doc, price = paper_example()
        assert len(build_tags_path(doc, price).entries) == 3


class TestExtractionOnSamePage:
    def test_roundtrip(self):
        doc, price = paper_example()
        path = build_tags_path(doc, price)
        assert extract_price_text(render(doc), path) == "$10.00"

    def test_single_candidate_shortcut(self):
        doc, price = paper_example()
        path = build_tags_path(doc, price)
        html = render(doc)
        found = tagspath_legacy.extract_price_element(parse(html), path)
        assert found is not None
        assert found.text() == "$10.00" == extract_price_text(html, path)

    def test_no_candidate(self):
        doc, price = paper_example()
        path = build_tags_path(doc, price)
        other = "<html><head><title>x</title></head><body><div>1</div></body></html>"
        assert extract_price_text(other, path) is None

    def test_unparseable_page(self):
        doc, price = paper_example()
        path = build_tags_path(doc, price)
        assert extract_price_text("<html><body>", path) is None


class TestExtractionOnVariantStorePages:
    """The real scenario: the path is recorded on the initiator's page
    and replayed on remote pages with different ads/related items and
    multiple decoy prices."""

    @pytest.fixture
    def store(self):
        geodb = GeoDatabase()
        rates = ExchangeRateProvider()
        catalog = make_catalog("variant.com", size=12, rng=random.Random(11))
        return EStore(
            domain="variant.com", country_code="ES", catalog=catalog,
            pricing=UniformPricing(), geodb=geodb, rates=rates,
        ), geodb

    def _ctx(self, geodb, nonce, country="ES"):
        return RequestContext(
            time=0.0, location=geodb.make_location(country), request_nonce=nonce,
        )

    def test_price_recovered_across_variants(self, store):
        store, geodb = store
        product = store.catalog.products[0]
        initiator = store.fetch(f"/product/{product.product_id}", self._ctx(geodb, 0))
        doc = parse(initiator.html)
        product_div = find_all(doc, cls="product")[0]
        price_el = find_all(product_div, tag="span", cls=store.price_class)[0]
        path = build_tags_path(doc, price_el)

        hits = 0
        for nonce in range(1, 21):
            remote = store.fetch(f"/product/{product.product_id}", self._ctx(geodb, nonce))
            text = extract_price_text(remote.html, path)
            assert text is not None
            # the extracted text must be the *product* price, not a decoy
            from repro.currency.detect import detect_price

            detected = detect_price(text)
            if detected.amount == pytest.approx(remote.displayed_amount):
                hits += 1
        assert hits == 20

    def test_price_recovered_from_other_locations(self, store):
        store, geodb = store
        product = store.catalog.products[3]
        initiator = store.fetch(f"/product/{product.product_id}", self._ctx(geodb, 0))
        doc = parse(initiator.html)
        product_div = find_all(doc, cls="product")[0]
        price_el = find_all(product_div, tag="span", cls=store.price_class)[0]
        path = build_tags_path(doc, price_el)

        from repro.currency.detect import detect_price

        for country in ("FR", "US", "JP"):
            remote = store.fetch(f"/product/{product.product_id}", self._ctx(geodb, 5, country))
            text = extract_price_text(remote.html, path)
            assert text is not None
            detected = detect_price(text)
            assert detected.amount == pytest.approx(remote.displayed_amount)


class TestDeepPageTruncation:
    """Paths beyond MAX_PATH_ENTRIES keep both ends, not just the head.

    Regression test: truncating to ``closings[:MAX_PATH_ENTRIES]`` kept
    only the bottom-of-document entries, so on a deep page every price
    candidate's path collapsed to the same ``html, body, filler…``
    prefix and the document-order tie-break picked the *first* price on
    the page regardless of which one was recorded.  Keeping head + tail
    preserves the discriminative entries nearest the target.
    """

    @pytest.fixture(autouse=True)
    def _deep_recursion(self):
        # render/iter_elements recurse per nesting level; give the
        # 450-deep synthetic page headroom (parse itself is iterative)
        import sys

        before = sys.getrecursionlimit()
        sys.setrecursionlimit(before + 3000)
        try:
            yield
        finally:
            sys.setrecursionlimit(before)

    def _deep_page(self, n_fillers=450):
        filler = Element("div", {"class": "filler"}, ["pad"])
        for _ in range(n_fillers - 1):
            filler = Element("div", {"class": "filler"}, [filler])
        doc = Element("html", children=[
            Element("body", children=[
                Element("div", {"class": "A"}, [
                    Element("div", {"class": "ctx1"}, [
                        Element("span", {"class": "price"}, ["$1.00"]),
                    ]),
                ]),
                Element("div", {"class": "B"}, [
                    Element("div", {"class": "ctx2"}, [
                        Element("span", {"class": "price"}, ["$2.00"]),
                    ]),
                ]),
                filler,
            ]),
        ])
        decoy, wanted = find_all(doc, tag="span", cls="price")
        return doc, decoy, wanted

    def test_truncated_path_keeps_both_ends(self):
        doc, _, wanted = self._deep_page()
        path = build_tags_path(doc, wanted)
        assert len(path.entries) == MAX_PATH_ENTRIES
        # head: the bottom-of-document entries the paper starts from
        assert path.entries[0] == "html"
        assert path.entries[1] == "body"
        # tail: the discriminative entries adjacent to the target
        assert path.entries[-1] == "div.ctx2"
        assert path.entries[-2] == "div.B"

    def test_second_price_still_wins_on_deep_page(self):
        doc, decoy, wanted = self._deep_page()
        path = build_tags_path(doc, wanted)
        html = render(doc)
        found = tagspath_legacy.extract_price_element(parse(html), path)
        assert found is not None
        assert found.text() == "$2.00"
        assert found.signature() == wanted.signature()
        assert extract_price_text(html, path) == "$2.00"
        assert tagspath_legacy.extract_price_text(html, path) == "$2.00"
