"""Tests for catalog generation."""

import random

import pytest

from repro.web.catalog import (
    CATEGORY_PRICE_BANDS,
    Catalog,
    Product,
    flagship_products,
    make_catalog,
)


class TestMakeCatalog:
    def test_size(self):
        catalog = make_catalog("shop.com", size=25, rng=random.Random(1))
        assert len(catalog) == 25

    def test_deterministic(self):
        a = make_catalog("shop.com", size=10, rng=random.Random(9))
        b = make_catalog("shop.com", size=10, rng=random.Random(9))
        assert [p.product_id for p in a] == [p.product_id for p in b]
        assert [p.base_price_eur for p in a] == [p.base_price_eur for p in b]

    def test_prices_within_category_bands(self):
        catalog = make_catalog("shop.com", size=60, rng=random.Random(2))
        for product in catalog:
            lo, hi = CATEGORY_PRICE_BANDS[product.category]
            assert lo <= product.base_price_eur <= hi * 1.001

    def test_category_restriction(self):
        catalog = make_catalog(
            "books.com", size=15, rng=random.Random(3), categories=["books"]
        )
        assert all(p.category == "books" for p in catalog)

    def test_flagship_prepended(self):
        iq280 = flagship_products()["iq280"]
        catalog = make_catalog("d.com", size=5, rng=random.Random(4), flagship=[iq280])
        assert catalog.products[0].product_id == "digitalrev-iq280"
        assert len(catalog) == 6

    def test_duplicate_ids_rejected(self):
        p = Product("dup", "A", "books", 10.0)
        with pytest.raises(ValueError):
            Catalog([p, p])


class TestCatalogAccess:
    def test_get(self):
        catalog = make_catalog("shop.com", size=5, rng=random.Random(5))
        pid = catalog.products[2].product_id
        assert catalog.get(pid).product_id == pid
        assert catalog.get("missing") is None

    def test_sample_distinct(self):
        catalog = make_catalog("shop.com", size=20, rng=random.Random(6))
        sampled = catalog.sample(random.Random(0), 10)
        assert len({p.product_id for p in sampled}) == 10

    def test_sample_too_many(self):
        catalog = make_catalog("shop.com", size=3, rng=random.Random(7))
        with pytest.raises(ValueError):
            catalog.sample(random.Random(0), 5)


def test_flagship_iq280_price():
    """The Phase One IQ280 anchors the >€10k finding of Sect. 6.2."""
    assert flagship_products()["iq280"].base_price_eur == 34500.0
