"""Tests for the peer proxy client: budgets and doppelganger swapping."""

import pytest



@pytest.fixture
def peer(world, sheriff):
    browser = world.make_browser("ES", "Madrid")
    addon = sheriff.install_addon(browser)
    return addon


class TestRemoteRequests:
    def test_handle_returns_page_and_location(self, peer, shop_url):
        reply = peer.peer_handler.handle(
            {"type": "remote_page_request", "url": shop_url()}
        )
        assert reply["status"] == 200
        assert reply["country"] == "ES"
        assert "html" in reply
        assert not reply["used_doppelganger"]

    def test_bad_message_rejected(self, peer):
        assert "error" in peer.peer_handler.handle({"type": "other"})
        assert "error" in peer.peer_handler.handle({"type": "remote_page_request"})
        assert "error" in peer.peer_handler.handle("not a dict")

    def test_unvisited_domain_unlimited_real_profile(self, peer, shop_url):
        """No organic visits → no server-side state to pollute → serve
        freely with the (empty) real profile."""
        for _ in range(6):
            reply = peer.peer_handler.handle(
                {"type": "remote_page_request", "url": shop_url()}
            )
            assert not reply["used_doppelganger"]
        assert peer.peer_handler.requests_with_real_profile == 6

    def test_browser_state_clean_after_serving(self, peer, shop_url):
        before = peer.browser.cookies.snapshot()
        peer.peer_handler.handle({"type": "remote_page_request", "url": shop_url()})
        assert peer.browser.cookies.snapshot() == before
        assert len(peer.browser.history.snapshot()) == 0


class TestBudgetWithDoppelganger:
    def _cluster(self, world, sheriff):
        domains = ["news.example", "blog.example", "shop.example"]
        return sheriff.run_doppelganger_clustering(domains, k=1, max_iterations=2)

    def test_budget_exhaustion_swaps_doppelganger(self, world, sheriff, shop_url):
        browser = world.make_browser("ES", "Madrid")
        addon = sheriff.install_addon(browser)
        # organic shopping: 4 product views → budget of exactly 1
        browser.visit(shop_url(0))
        browser.visit(shop_url(1))
        browser.visit(shop_url(2))
        browser.visit(shop_url(3))
        browser.visit("http://news.example/a")
        self._cluster(world, sheriff)

        handler = addon.peer_handler
        first = handler.serve_remote_request(shop_url(4))
        assert not first["used_doppelganger"]  # within the 1-in-4 budget
        second = handler.serve_remote_request(shop_url(5))
        assert second["used_doppelganger"]  # budget exhausted
        assert handler.requests_with_doppelganger == 1

    def test_fallback_to_real_without_clustering(self, world, sheriff, shop_url):
        browser = world.make_browser("ES", "Madrid")
        addon = sheriff.install_addon(browser)
        for i in range(4):
            browser.visit(shop_url(i))
        # budget is 1; no doppelgangers exist yet → fall back to real
        addon.peer_handler.serve_remote_request(shop_url(4))
        reply = addon.peer_handler.serve_remote_request(shop_url(5))
        assert not reply["used_doppelganger"]

    def test_doppelganger_shields_server_side_state(self, world, sheriff, shop_url):
        store = world.internet.site("shop.example")
        browser = world.make_browser("ES", "Madrid")
        addon = sheriff.install_addon(browser)
        for i in range(4):
            browser.visit(shop_url(i))
        browser.visit("http://news.example/a")
        self._cluster(world, sheriff)
        sid = browser.cookies.value("shop.example", "sid")

        handler = addon.peer_handler
        handler.serve_remote_request(shop_url(4))  # real (budget 1)
        visits_after_real = sum(store.visits_for(sid).values())
        handler.serve_remote_request(shop_url(5))  # doppelganger
        visits_after_dopp = sum(store.visits_for(sid).values())
        # the doppelganger request added nothing to the user's state
        assert visits_after_dopp == visits_after_real

    def test_doppelganger_state_persisted_back(self, world, sheriff, shop_url):
        browser = world.make_browser("ES", "Madrid")
        addon = sheriff.install_addon(browser)
        for i in range(4):
            browser.visit(shop_url(i))
        browser.visit("http://news.example/a")
        outcome = self._cluster(world, sheriff)
        handler = addon.peer_handler
        handler.serve_remote_request(shop_url(4))  # real
        handler.serve_remote_request(shop_url(5))  # doppelganger
        dopp = sheriff.dopp_manager.doppelgangers()[0]
        # the doppelganger picked up the store session from the request
        assert "shop.example" in dopp.client_state
