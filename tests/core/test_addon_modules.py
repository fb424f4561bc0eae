"""Tests for the add-on's collector/selection/profile modules."""

import random

import pytest

from repro.core.addon import PriceSelectionError, SheriffAddon
from repro.core.tagspath import select_tags_path
from repro.currency.detect import CurrencyDetectionError
from repro.web.html import Element, render

from tests.oracles import tagspath_legacy


def page_with(price_text, cls="price"):
    return render(Element("html", children=[
        Element("head", children=[Element("title", children=["t"])]),
        Element("body", children=[
            Element("div", {"class": "product"}, [
                Element("span", {"class": cls}, [price_text]),
            ]),
        ]),
    ]))


def select(html):
    """The add-on's pick on the page's cut, checked against the tree."""
    picked = select_tags_path(html, SheriffAddon.select_price_element)
    assert picked == tagspath_legacy.build_selection(html)
    return picked


class TestPriceSelection:
    def test_selects_price_in_product_div(self):
        path, text = select(page_with("EUR 12.50"))
        assert text == "EUR 12.50"
        assert path.target == "span.price"

    @pytest.mark.parametrize("cls", ["price", "product-price", "amount",
                                     "sale-price"])
    def test_all_price_classes_supported(self, cls):
        path, text = select(page_with("EUR 5", cls=cls))
        assert text == "EUR 5"
        assert path.target == f"span.{cls}"

    def test_prefers_product_div_over_decoys(self):
        html = render(Element("html", children=[
            Element("head", children=[Element("title", children=["t"])]),
            Element("body", children=[
                Element("div", {"class": "banner"}, [
                    Element("span", {"class": "price"}, ["EUR 1"]),
                ]),
                Element("div", {"class": "product"}, [
                    Element("span", {"class": "price"}, ["EUR 99"]),
                ]),
            ]),
        ]))
        assert select(html)[1] == "EUR 99"

    def test_class_order_beats_document_order(self):
        html = ('<html><body><div class="product"><span class="amount">EUR 2</span>'
                '<span class="price">EUR 3</span></div></body></html>')
        assert select(html)[1] == "EUR 3"

    def test_no_price_element(self):
        html = "<html><head><title>t</title></head><body><div>x</div></body></html>"
        with pytest.raises(PriceSelectionError):
            select_tags_path(html, SheriffAddon.select_price_element)
        with pytest.raises(PriceSelectionError):
            tagspath_legacy.build_selection(html)


class TestSelectionValidation:
    """The add-on validates before anything leaves the browser."""

    def _addon(self, world, sheriff):
        return sheriff.install_addon(world.make_browser("FR"))

    def test_valid_selection_builds_path(self, world, sheriff):
        addon = self._addon(world, sheriff)
        path, text = addon.build_selection(page_with("EUR 10.00"))
        assert path.target == "span.price"
        assert text == "EUR 10.00"

    def test_overlong_selection_rejected(self, world, sheriff):
        addon = self._addon(world, sheriff)
        with pytest.raises(CurrencyDetectionError):
            addon.build_selection(page_with("x" * 30 + "1"))

    def test_digitless_selection_rejected(self, world, sheriff):
        addon = self._addon(world, sheriff)
        with pytest.raises(CurrencyDetectionError):
            addon.build_selection(page_with("price on request"))


class TestEncryptedProfile:
    def test_profile_encrypts_and_decrypts(self, world, sheriff):
        from repro.crypto.group import TEST_GROUP
        from repro.crypto.secure_kmeans import KMeansCoordinator, profile_to_plaintext
        from repro.profiles.vector import profile_from_counts

        browser = world.make_browser("ES")
        for _ in range(3):
            browser.visit("http://news.example/a")
        addon = sheriff.install_addon(browser)
        rng = random.Random(0)
        coordinator = KMeansCoordinator(TEST_GROUP, m=2, value_bound=100,
                                        rng=rng)
        domains = ["news.example", "luxury.example"]
        ct = addon.encrypted_profile(
            coordinator.scheme, coordinator.public_keys, domains, rng
        )
        # the Coordinator (key holder) can decrypt and sees the encoded
        # profile — in the protocol only the Aggregator holds this
        expected = profile_from_counts(
            browser.browsing_profile_counts(), domains
        ).quantized
        plain = coordinator.scheme.decrypt(
            coordinator._secret, ct, bound=100 * 100 * 2 + 1
        )
        assert plain == profile_to_plaintext(list(expected))

    def test_profile_requires_consent(self, world, sheriff):
        from repro.core.addon import ConsentRequired

        addon = sheriff.install_addon(world.make_browser("ES"), consent=False)
        with pytest.raises(ConsentRequired):
            addon.encrypted_profile(None, [], [], random.Random(0))
