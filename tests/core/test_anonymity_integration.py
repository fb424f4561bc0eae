"""End-to-end anonymity of doppelganger state requests."""



class TestCoordinatorIntegration:
    def test_no_state_request_seen_yet(self, sheriff):
        """The request log exists, empty, before the first request."""
        assert sheriff.coordinator.state_request_sources == []

    def test_state_request_source_is_relay(self, world, sheriff, es_peers):
        """End to end: after a doppelganger swap, the Coordinator's
        request log contains relay names, never peer IDs."""
        store = world.internet.site("uniform.example")
        user = es_peers[0]
        for product in store.catalog.products[:4]:
            user.browser.visit(store.product_url(product.product_id))
        user.browser.visit("http://news.example/a")
        sheriff.run_doppelganger_clustering(
            ["news.example", "uniform.example"], k=1, max_iterations=2
        )
        handler = user.peer_handler
        url5 = store.product_url(store.catalog.products[4].product_id)
        url6 = store.product_url(store.catalog.products[5].product_id)
        handler.serve_remote_request(url5)  # within budget (real profile)
        reply = handler.serve_remote_request(url6)  # doppelganger swap
        assert reply["used_doppelganger"]
        sources = sheriff.coordinator.state_request_sources
        assert sources
        assert all(s.startswith("relay-") for s in sources)
        peer_ids = {a.peer_id for a in sheriff.addons}
        assert not (set(sources) & peer_ids)
