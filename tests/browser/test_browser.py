"""Tests for the browser fetch pipeline."""

import pytest

from repro.browser.browser import Browser
from repro.browser.fingerprint import user_agent


@pytest.fixture
def browser(internet, ecosystem, clock, geodb):
    return Browser(
        internet=internet,
        ecosystem=ecosystem,
        clock=clock,
        location=geodb.make_location("ES", "Madrid"),
    )


class TestVisit:
    def test_history_recorded(self, browser, store):
        product = store.catalog.products[0]
        browser.visit(store.product_url(product.product_id))
        assert browser.history.domain_counts() == {"shop.example": 1}
        assert browser.history.product_visits_to("shop.example") == 1

    def test_first_party_cookie_persisted(self, browser, store):
        product = store.catalog.products[0]
        browser.visit(store.product_url(product.product_id))
        assert browser.cookies.value("shop.example", "sid") is not None

    def test_session_stable_across_visits(self, browser, store):
        product = store.catalog.products[0]
        browser.visit(store.product_url(product.product_id))
        sid = browser.cookies.value("shop.example", "sid")
        browser.visit(store.product_url(product.product_id))
        assert browser.cookies.value("shop.example", "sid") == sid

    def test_tracker_cookie_set_and_profile_built(self, browser, store, ecosystem):
        product = store.catalog.products[0]
        browser.visit(store.product_url(product.product_id))
        tid = browser.cookies.value("doubleclick.net", "tid")
        assert tid is not None
        assert ecosystem.get("doubleclick.net").profile(tid)["shop.example"] == 1

    def test_cache_populated(self, browser, store):
        url = store.product_url(store.catalog.products[0].product_id)
        browser.visit(url)
        assert url in browser.cache

    def test_server_side_state_via_session(self, browser, store):
        product = store.catalog.products[0]
        url = store.product_url(product.product_id)
        browser.visit(url)
        sid = browser.cookies.value("shop.example", "sid")
        browser.visit(url)
        assert store.visits_for(sid)[product.product_id] == 1
        # the first visit was anonymous (keyed by IP)
        assert store.visits_for(browser.location.ip)[product.product_id] == 1

    def test_content_site_builds_history(self, browser):
        browser.visit("http://news.example/article/1")
        browser.visit("http://news.example/article/2")
        assert browser.history.domain_counts()["news.example"] == 2


class TestLogin:
    def test_login_sets_account_cookie(self, browser):
        browser.login("shop.example")
        assert browser.cookies.value("shop.example", "account") is not None

    def test_not_logged_in_by_default(self, browser):
        assert browser.cookies.value("shop.example", "account") is None


class TestRequestContext:
    def test_context_carries_cookies(self, browser, store):
        browser.visit(store.product_url(store.catalog.products[0].product_id))
        ctx = browser.request_context("shop.example")
        assert "sid" in ctx.first_party_cookies
        assert "doubleclick.net" in ctx.tracker_cookies

    def test_context_nonce_increments(self, browser):
        a = browser.request_context("shop.example")
        b = browser.request_context("shop.example")
        assert b.request_nonce > a.request_nonce

    def test_user_agent_in_context(self, internet, ecosystem, clock, geodb):
        browser = Browser(
            internet=internet, ecosystem=ecosystem, clock=clock,
            location=geodb.make_location("FR"),
            agent=user_agent("Linux", "Firefox"),
        )
        ctx = browser.request_context("shop.example")
        assert "Firefox" in ctx.user_agent
        assert "Linux" in ctx.user_agent
