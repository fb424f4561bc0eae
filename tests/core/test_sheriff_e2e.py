"""End-to-end tests of the full price-check protocol (Fig. 1)."""

import pytest

from repro.core.coordinator import RequestRejected
from repro.core.detector import analyze_rows
from repro.core.addon import ConsentRequired

from tests.core.stored_pages import diffs_of, reference_of


def product_url(world, domain, index=0):
    store = world.internet.site(domain)
    return store.product_url(store.catalog.products[index].product_id)


class TestBasicPriceCheck:
    def test_uniform_store_no_difference(self, world, sheriff, es_user, es_peers):
        result = es_user.check_price(product_url(world, "uniform.example"))
        assert len(result.valid_rows()) >= 9  # You + 8 IPCs + peers
        assert not result.has_price_difference()

    def test_rows_include_you_ipc_ppc(self, world, sheriff, es_user, es_peers):
        result = es_user.check_price(product_url(world, "uniform.example"))
        kinds = {r.kind for r in result.rows}
        assert kinds == {"You", "IPC", "PPC"}

    def test_ppcs_are_same_country(self, world, sheriff, es_user, es_peers):
        result = es_user.check_price(product_url(world, "uniform.example"))
        for row in result.rows:
            if row.kind == "PPC":
                assert row.country == "ES"

    def test_job_completion_reported(self, world, sheriff, es_user, es_peers):
        es_user.check_price(product_url(world, "uniform.example"))
        assert sheriff.coordinator.pending_jobs() == 0
        (record,) = sheriff.coordinator.jobs.values()
        assert record.completed

    def test_results_persisted(self, world, sheriff, es_user, es_peers):
        result = es_user.check_price(product_url(world, "uniform.example"))
        stored = sheriff.db.sp_responses_for_job(result.job_id)
        assert len(stored) == len(result.rows)

    def test_diffstorage_used(self, world, sheriff, es_user, es_peers):
        result = es_user.check_price(product_url(world, "uniform.example"))
        assert reference_of(sheriff.diffstore, result.job_id) is not None
        assert len(diffs_of(sheriff.diffstore)) >= 8

    def test_result_page_renders(self, world, sheriff, es_user, es_peers):
        result = es_user.check_price(product_url(world, "uniform.example"))
        page = result.render_result_page()
        assert "You" in page
        assert "Variant" in page
        assert "doubleclick.net" in page  # third-party domain disclosure

    def test_load_balanced_across_servers(self, world, sheriff, es_user, es_peers):
        urls = [product_url(world, "uniform.example", i) for i in range(4)]
        for url in urls:
            es_user.check_price(url)
        # all jobs completed, none left pending on either server
        records = sheriff.coordinator.jobs.values()
        assert sum(r.completed for r in records) == 4
        assert sheriff.coordinator.pending_jobs() == 0


class TestWhitelisting:
    def test_non_whitelisted_domain_rejected(self, world, sheriff, es_user):
        world.internet.register(
            __import__("repro.web.internet", fromlist=["ContentSite"]).ContentSite(
                "rogue.example"
            )
        )
        with pytest.raises(RequestRejected):
            es_user.check_price("http://rogue.example/product/x")
        assert sheriff.whitelist.rejected[-1].domain == "rogue.example"

    def test_pii_url_rejected(self, world, sheriff, es_user):
        with pytest.raises(RequestRejected):
            es_user.check_price("http://uniform.example/account/me")


class TestConsent:
    def test_no_consent_no_activation(self, world, sheriff):
        browser = world.make_browser("FR")
        addon = sheriff.install_addon(browser, consent=False)
        with pytest.raises(ConsentRequired):
            addon.check_price(product_url(world, "uniform.example"))

    def test_no_consent_not_in_overlay(self, world, sheriff):
        browser = world.make_browser("FR")
        addon = sheriff.install_addon(browser, consent=False)
        assert sheriff.overlay.location_of(addon.peer_id) is None


class TestSandboxDuringChecks:
    def test_ppc_state_untouched_by_serving(self, world, sheriff, es_user, es_peers):
        peer = es_peers[0]
        cookies_before = peer.browser.cookies.snapshot()
        history_before = len(peer.browser.history.snapshot())
        es_user.check_price(product_url(world, "uniform.example"))
        assert peer.peer_handler.requests_served >= 1
        assert peer.browser.cookies.snapshot() == cookies_before
        assert len(peer.browser.history.snapshot()) == history_before

    def test_initiator_navigation_is_organic(self, world, sheriff, es_user, es_peers):
        url = product_url(world, "uniform.example")
        es_user.check_price(url)
        assert es_user.browser.history.product_visits_to("uniform.example") == 1


class TestLocationBasedPd:
    def test_country_multiplier_detected(self, world, sheriff, es_user, es_peers):
        result = es_user.check_price(product_url(world, "geo.example"))
        assert result.has_price_difference()
        report = analyze_rows(result.rows, world.geodb)
        assert report.classification == "location"
        assert report.cross_country_spread > 0.04

    def test_canada_is_most_expensive(self, world, sheriff, es_user, es_peers):
        result = es_user.check_price(product_url(world, "geo.example"))
        by_country = {}
        for row in result.valid_rows():
            by_country.setdefault(row.country, []).append(row.amount_eur)
        assert max(by_country["CA"]) > max(by_country["ES"]) * 1.2

    def test_uniform_store_classified_none(self, world, sheriff, es_user, es_peers):
        result = es_user.check_price(product_url(world, "uniform.example"))
        report = analyze_rows(result.rows, world.geodb)
        assert report.classification == "none"


class TestWithinCountryVariation:
    def test_ab_testing_shows_within_country_spread(
        self, world, sheriff, es_user, es_peers
    ):
        # repeat checks: each A/B draw is per (client, time)
        seen_difference = False
        for i in range(6):
            world.clock.advance(60)
            result = es_user.check_price(product_url(world, "ab.example", i % 3))
            report = analyze_rows(result.rows, world.geodb)
            if "ES" in report.within_country_spread:
                seen_difference = True
                break
        assert seen_difference

    def test_vat_store_gap_is_vat_explained(self, world, sheriff, es_peers):
        # a German logged-in user vs guests in Germany
        browser = world.make_browser("DE", "Berlin")
        browser.login("vat.example")
        addon = sheriff.install_addon(browser)
        result = addon.check_price(product_url(world, "vat.example"))
        report = analyze_rows(result.rows, world.geodb)
        assert "DE" in report.within_country_spread
        assert report.vat_explained["DE"]


class TestElasticity:
    def test_add_measurement_server_dynamically(self, world, sheriff, es_user):
        sheriff.add_measurement_server("ms-extra")
        assert "ms-extra" in sheriff.measurement_servers
        result = es_user.check_price(product_url(world, "uniform.example"))
        assert result.rows  # system still functions
