"""Tests for the systematic crawler driver."""


from repro.clients.crawler import SystematicCrawler


class TestCrawler:
    def test_basic_check(self, world, sheriff, shop_url):
        crawler = SystematicCrawler(sheriff, "ES", "Madrid")
        result = crawler.check(shop_url())
        assert result.valid_rows()
        assert crawler.total_checks == 1

    def test_clock_advances_between_checks(self, world, sheriff, shop_url):
        crawler = SystematicCrawler(sheriff, "ES")
        t0 = world.clock.now
        crawler.check(shop_url())
        assert world.clock.now > t0

    def test_profile_reset_every_four(self, world, sheriff, shop_url):
        crawler = SystematicCrawler(sheriff, "ES", reset_every=4)
        first_addon = crawler.addon
        for i in range(4):
            crawler.check(shop_url(i % 3))
        assert crawler.addon is first_addon  # not yet reset
        crawler.check(shop_url())
        assert crawler.addon is not first_addon  # clean profile swap
        # fresh browser has only the new navigation in history
        assert len(crawler.addon.browser.history.snapshot()) == 1

    def test_crawler_not_registered_as_ppc(self, world, sheriff, shop_url):
        crawler = SystematicCrawler(sheriff, "ES")
        assert sheriff.overlay.location_of(crawler.addon.peer_id) is None

    def test_run_campaign(self, world, sheriff, shop_url):
        crawler = SystematicCrawler(sheriff, "FR")
        results = [crawler.check(url) for _ in range(2)
                   for url in (shop_url(0), shop_url(1))]
        assert all(r.valid_rows() for r in results)
        assert crawler.total_checks == 4

    def test_campaign_results_from_requested_country(self, world, sheriff, shop_url):
        crawler = SystematicCrawler(sheriff, "FR")
        result = crawler.check(shop_url())
        assert result.initiator_row.country == "FR"
