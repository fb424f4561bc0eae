"""Tests for geoblock detection."""

import random

import pytest

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.extensions.geoblock import GeoblockReport, GeoblockScanner
from repro.web.catalog import make_catalog
from repro.web.pricing import UniformPricing
from repro.web.store import EStore

IPC_SITES = (
    ("ES", "Madrid", 1.0),
    ("US", "Tennessee", 1.0),
    ("DE", "Berlin", 1.0),
    ("JP", "Tokyo", 1.0),
)


@pytest.fixture
def setup():
    world = SheriffWorld.create(seed=77)
    blocked = EStore(
        domain="regional.example", country_code="US",
        catalog=make_catalog("regional.example", size=4, rng=random.Random(1)),
        pricing=UniformPricing(), geodb=world.geodb, rates=world.rates,
        blocked_countries=("DE", "ES"),
    )
    open_store = EStore(
        domain="open.example", country_code="US",
        catalog=make_catalog("open.example", size=4, rng=random.Random(2)),
        pricing=UniformPricing(), geodb=world.geodb, rates=world.rates,
    )
    world.internet.register(blocked)
    world.internet.register(open_store)
    sheriff = PriceSheriff(world, n_measurement_servers=1, ipc_sites=IPC_SITES)
    return world, sheriff, blocked, open_store


class TestStoreBlocking:
    def test_blocked_country_gets_451(self, setup):
        world, _, blocked, _ = setup
        from repro.web.pricing import RequestContext

        ctx = RequestContext(time=0.0, location=world.geodb.make_location("DE"))
        response = blocked.fetch(f"/product/{blocked.catalog.products[0].product_id}", ctx)
        assert response.status == 451
        assert "not available" in response.html

    def test_unblocked_country_served(self, setup):
        world, _, blocked, _ = setup
        from repro.web.pricing import RequestContext

        ctx = RequestContext(time=0.0, location=world.geodb.make_location("JP"))
        response = blocked.fetch(f"/product/{blocked.catalog.products[0].product_id}", ctx)
        assert response.status == 200


class TestScanner:
    def test_detects_geoblocking(self, setup):
        world, sheriff, blocked, _ = setup
        scanner = GeoblockScanner(sheriff)
        report = scanner.scan(
            blocked.product_url(blocked.catalog.products[0].product_id)
        )
        assert report.is_geoblocked
        assert report.blocked_countries() == ["DE", "ES"]
        assert set(report.served_countries()) == {"US", "JP"}
        assert "BLOCKED" in report.render()

    def test_open_site_not_flagged(self, setup):
        world, sheriff, _, open_store = setup
        scanner = GeoblockScanner(sheriff)
        report = scanner.scan(
            open_store.product_url(open_store.catalog.products[0].product_id)
        )
        assert not report.is_geoblocked
        assert report.blocked_countries() == []
        assert "uniformly available" in report.render()

    def test_sweep(self, setup):
        world, sheriff, blocked, open_store = setup
        scanner = GeoblockScanner(sheriff)
        reports = [scanner.scan(url) for url in (
            blocked.product_url(blocked.catalog.products[0].product_id),
            open_store.product_url(open_store.catalog.products[0].product_id),
        )]
        assert [r.is_geoblocked for r in reports] == [True, False]


class TestReportEdgeCases:
    def test_blocked_everywhere_is_not_geoblocking(self):
        report = GeoblockReport(
            url="u", status_by_country={"ES": [451], "US": [451]}
        )
        assert not report.is_geoblocked  # dead site ≠ geoblocked site

    def test_mixed_statuses_within_country(self):
        report = GeoblockReport(
            url="u", status_by_country={"ES": [200, 451], "US": [200]}
        )
        # one Spanish vantage point got through → not blocked there
        assert report.blocked_countries() == []
