"""Tests for sandboxing — the Sect. 3.6.1 invariant.

The paper's beta test: "We did not observe any cookies installed nor any
traces of remote product page requests in any VM."
"""

import pytest

from repro.browser.browser import Browser
from repro.browser.sandbox import Sandbox, sandboxed_fetch


@pytest.fixture
def browser(internet, ecosystem, clock, geodb):
    b = Browser(
        internet=internet,
        ecosystem=ecosystem,
        clock=clock,
        location=geodb.make_location("ES", "Madrid"),
    )
    # give the browser some organic state first
    b.visit("http://news.example/a")
    b.visit("http://blog.example/b")
    return b


def state_fingerprint(browser):
    return (
        browser.cookies.snapshot(),
        tuple(browser.history.snapshot()),
        dict(browser.cache),
    )


class TestSandboxInvariant:
    def test_cookies_history_cache_restored(self, browser, store):
        before = state_fingerprint(browser)
        url = store.product_url(store.catalog.products[0].product_id)
        sandboxed_fetch(browser, url)
        assert state_fingerprint(browser) == before

    def test_restored_even_on_exception(self, browser):
        before = state_fingerprint(browser)
        with pytest.raises(RuntimeError):
            with Sandbox(browser):
                browser.visit("http://news.example/x")
                raise RuntimeError("boom")
        assert state_fingerprint(browser) == before

    def test_response_still_returned(self, browser, store):
        url = store.product_url(store.catalog.products[0].product_id)
        result = sandboxed_fetch(browser, url)
        assert result.response.status == 200
        assert result.response.displayed_amount is not None

    def test_own_state_sent_when_no_doppelganger(self, browser, store):
        """Without a doppelganger the PPC's real cookies go out."""
        url = store.product_url(store.catalog.products[0].product_id)
        browser.visit(url)  # establish a session organically
        sid = browser.cookies.value("shop.example", "sid")
        result = sandboxed_fetch(browser, url)
        assert not result.used_doppelganger
        # server recorded the sandboxed visit under the real session
        assert store.visits_for(sid)[store.catalog.products[0].product_id] >= 1

    def test_doppelganger_state_shields_user(self, browser, store):
        url = store.product_url(store.catalog.products[0].product_id)
        dopp_state = {"shop.example": {"sid": "dopp-session"}}
        result = sandboxed_fetch(browser, url, client_state=dopp_state)
        assert result.used_doppelganger
        pid = store.catalog.products[0].product_id
        assert store.visits_for("dopp-session")[pid] == 1
        # the user's own ip/session never touched the product
        assert store.visits_for(browser.location.ip)[pid] == 0

    def test_doppelganger_updated_state_returned(self, browser, store):
        url = store.product_url(store.catalog.products[0].product_id)
        result = sandboxed_fetch(browser, url, client_state={})
        # the store issued a fresh session to the doppelganger identity
        assert "sid" in result.client_state_after.get("shop.example", {})

    def test_real_profile_fetch_takes_no_end_state_copy(
        self, browser, store, monkeypatch
    ):
        """Only a doppelganger's end state goes back to the Coordinator:
        a fetch with the PPC's own cookies copies the jar once, for the
        sandbox to restore, and hands no end state out."""
        copies = []
        snapshot = browser.cookies.snapshot
        monkeypatch.setattr(
            browser.cookies, "snapshot", lambda: copies.append(1) or snapshot()
        )
        url = store.product_url(store.catalog.products[0].product_id)
        result = sandboxed_fetch(browser, url)
        assert result.client_state_after is None
        assert len(copies) == 1
        result = sandboxed_fetch(browser, url, client_state={})
        assert result.client_state_after is not None
        assert len(copies) == 3  # the sandbox's and the doppelganger's end state

    def test_tracker_profile_of_user_untouched_with_doppelganger(
        self, browser, store, ecosystem
    ):
        url = store.product_url(store.catalog.products[0].product_id)
        user_tid = browser.cookies.value("google-analytics.com", "tid")
        sandboxed_fetch(browser, url, client_state={})
        if user_tid is not None:
            profile = ecosystem.get("google-analytics.com").profile(user_tid)
            assert "shop.example" not in profile

    @pytest.mark.parametrize("n_fetches", [1, 2, 3, 5, 8])
    def test_invariant_holds_for_any_fetch_count(
        self, browser, store, n_fetches
    ):
        before = state_fingerprint(browser)
        url = store.product_url(store.catalog.products[0].product_id)
        for _ in range(n_fetches):
            sandboxed_fetch(browser, url)
        assert state_fingerprint(browser) == before
