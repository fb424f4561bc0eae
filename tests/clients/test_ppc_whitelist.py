"""PPC defence-in-depth: peers refuse non-whitelisted domains."""


from repro.web.internet import ContentSite


class TestPpcWhitelistGuard:
    def test_non_whitelisted_domain_refused(self, world, sheriff):
        """A compromised Measurement server cannot use peers as an open
        proxy towards arbitrary sites (Sect. 2.3)."""
        world.internet.register(ContentSite("rogue-target.example"))
        browser = world.make_browser("ES", "Madrid")
        addon = sheriff.install_addon(browser)
        reply = addon.peer_handler.handle({
            "type": "remote_page_request",
            "url": "http://rogue-target.example/anything",
        })
        assert "error" in reply
        assert "whitelisted" in reply["error"]
        # nothing was fetched, no state was touched
        assert len(browser.history.snapshot()) == 0
        assert addon.peer_handler.requests_served == 0

    def test_whitelisted_domain_served(self, world, sheriff, shop_url):
        browser = world.make_browser("ES", "Madrid")
        addon = sheriff.install_addon(browser)
        reply = addon.peer_handler.handle({
            "type": "remote_page_request", "url": shop_url(),
        })
        assert "error" not in reply
        assert reply["status"] == 200

    def test_newly_sanctioned_domain_served(self, world, sheriff):
        """Updating the whitelist re-opens the peers (the manual
        inspection loop of Sect. 3.2)."""
        from repro.web.catalog import make_catalog
        from repro.web.pricing import UniformPricing
        from repro.web.store import EStore
        import random

        store = EStore(
            domain="late.example", country_code="ES",
            catalog=make_catalog("late.example", size=2,
                                 rng=random.Random(1)),
            pricing=UniformPricing(), geodb=world.geodb, rates=world.rates,
        )
        world.internet.register(store)
        browser = world.make_browser("ES", "Madrid")
        addon = sheriff.install_addon(browser)
        url = store.product_url(store.catalog.products[0].product_id)
        assert "error" in addon.peer_handler.handle(
            {"type": "remote_page_request", "url": url}
        )
        sheriff.whitelist.add("late.example")
        reply = addon.peer_handler.handle(
            {"type": "remote_page_request", "url": url}
        )
        assert reply["status"] == 200
