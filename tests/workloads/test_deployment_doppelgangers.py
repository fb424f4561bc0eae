"""Integration: a clustering round over a live deployment's population.

The round is trained on the content web's top domains and runs after
the deployment's checks, so every user has a browsing history to
cluster."""

import pytest

from repro.workloads.deployment import DeploymentConfig, LiveDeployment


@pytest.fixture(scope="module")
def dataset():
    deployment = LiveDeployment(DeploymentConfig.test_scale())
    dataset = deployment.run()
    web = deployment.content_web
    dataset.sheriff.run_doppelganger_clustering(
        web.alexa_top(min(50, len(web.domains))), k=4, max_iterations=4
    )
    return dataset


class TestDeploymentWithDoppelgangers:
    def test_doppelgangers_built(self, dataset):
        assert len(dataset.sheriff.dopp_manager.doppelgangers()) >= 1

    def test_every_user_clustered(self, dataset):
        mapping = dataset.sheriff.aggregator.peer_cluster
        user_ids = {a.peer_id for a in dataset.population.addons}
        assert set(mapping) == user_ids

    def test_every_cluster_has_doppelganger(self, dataset):
        aggregator = dataset.sheriff.aggregator
        for peer_id in aggregator.peer_cluster:
            assert aggregator.has_doppelganger_for(peer_id)

    def test_k_respects_ten_percent_rule(self, dataset):
        n_users = len(dataset.population.addons)
        assert len(dataset.sheriff.dopp_manager.doppelgangers()) <= max(1, min(40, n_users // 10))

    def test_doppelganger_profiles_from_content_web(self, dataset):
        """Trained doppelgangers visited real content domains."""
        visited = set()
        for dopp in dataset.sheriff.dopp_manager.doppelgangers():
            visited.update(d for d, v in dopp.creation_visits.items() if v > 0)
        assert all(d.endswith(".web") for d in visited)

    def test_ppc_can_swap_in_doppelganger_after_run(self, dataset):
        """After clustering, an over-budget PPC serves as its double."""
        store = dataset.world.internet.site("jcpenney.com")
        user = dataset.population.addons[0]
        # exhaust the budget: organic views then repeated tunneled hits
        for product in store.catalog.products[:4]:
            user.browser.visit(store.product_url(product.product_id))
        handler = user.peer_handler
        replies = [
            handler.serve_remote_request(
                store.product_url(store.catalog.products[4 + i].product_id)
            )
            for i in range(3)
        ]
        assert any(r["used_doppelganger"] for r in replies)
