"""Unit tests for the Aggregator role."""

import random

import pytest

from repro.core.aggregator import Aggregator, NoDoppelgangerAssigned
from repro.crypto.elgamal import Ciphertext
from repro.crypto.group import TEST_GROUP
from repro.crypto.secure_kmeans import (
    KMeansCoordinator,
    ProfileClient,
    profile_to_plaintext,
)


@pytest.fixture
def roles():
    rng = random.Random(3)
    coordinator = KMeansCoordinator(TEST_GROUP, m=4, value_bound=10, rng=rng)
    aggregator = Aggregator(group=TEST_GROUP, rng=rng)
    return coordinator, aggregator, rng


def submit_profiles(coordinator, aggregator, rng, points):
    aggregator.begin_collection(coordinator)
    for peer_id, point in points.items():
        client = ProfileClient(peer_id, point, 10)
        aggregator.submit_encrypted_profile(
            peer_id,
            client.encrypt_profile(coordinator.scheme,
                                   coordinator.public_keys, rng),
        )


class TestCollection:
    def test_submit_requires_round(self, roles):
        _, aggregator, _ = roles
        with pytest.raises(RuntimeError):
            aggregator.submit_encrypted_profile("p", None)

    def test_profiles_counted(self, roles):
        coordinator, aggregator, rng = roles
        submit_profiles(coordinator, aggregator, rng,
                        {"a": [1, 1, 1, 1], "b": [9, 9, 9, 9]})
        assert aggregator._kmeans.n_clients == 2

    def test_clustering_without_profiles(self, roles):
        coordinator, aggregator, _ = roles
        with pytest.raises(RuntimeError):
            aggregator.run_clustering()


class TestClustering:
    def test_mapping_learned(self, roles):
        coordinator, aggregator, rng = roles
        submit_profiles(coordinator, aggregator, rng, {
            "low-1": [0, 1, 0, 1], "low-2": [1, 0, 1, 0],
            "high-1": [9, 10, 9, 10], "high-2": [10, 9, 10, 9],
        })
        coordinator.set_centroids([[0, 0, 0, 0], [10, 10, 10, 10]])
        mapping = aggregator.run_clustering(max_iterations=4)
        assert mapping["low-1"] == mapping["low-2"]
        assert mapping["high-1"] == mapping["high-2"]
        assert mapping["low-1"] != mapping["high-1"]

    def test_coordinator_learns_centroids_only(self, roles):
        """After the run the Coordinator's centroids reflect the data,
        while it never handled a plaintext point."""
        coordinator, aggregator, rng = roles
        submit_profiles(coordinator, aggregator, rng, {
            "a": [0, 0, 0, 0], "b": [10, 10, 10, 10],
        })
        coordinator.set_centroids([[1, 1, 1, 1], [9, 9, 9, 9]])
        aggregator.run_clustering(max_iterations=3)
        assert [0, 0, 0, 0] in coordinator.centroids
        assert [10, 10, 10, 10] in coordinator.centroids


class TestHostilePeer:
    def test_refused_at_intake_and_round_proceeds(self, roles):
        coordinator, aggregator, rng = roles
        submit_profiles(coordinator, aggregator, rng, {
            "low-1": [0, 1, 0, 1], "low-2": [1, 0, 1, 0],
            "high-1": [9, 10, 9, 10], "high-2": [10, 9, 10, 9],
        })
        with pytest.raises(ValueError, match="'mallory'"):
            aggregator.submit_encrypted_profile(
                "mallory", Ciphertext(alpha=0, betas=(0,) * coordinator.t)
            )
        assert aggregator._kmeans.n_clients == 4
        coordinator.set_centroids([[0, 0, 0, 0], [10, 10, 10, 10]])
        mapping = aggregator.run_clustering(max_iterations=4)
        assert "mallory" not in mapping
        assert mapping["low-1"] == mapping["low-2"] != mapping["high-1"]

    def test_deployment_round_skips_the_refused_addon(self, world, sheriff):
        addons = [
            sheriff.install_addon(world.make_browser("ES", "Madrid"))
            for _ in range(5)
        ]
        mallory = addons[2]
        mallory.encrypted_profile = lambda scheme, *args, **kwargs: Ciphertext(
            alpha=0, betas=(0,) * scheme.dimensions
        )
        outcome = sheriff.run_doppelganger_clustering(
            ["news.example", "blog.example"], k=2, max_iterations=2
        )
        assert set(outcome.mapping) == {
            a.peer_id for a in addons if a is not mallory
        }
        assert not sheriff.aggregator.has_doppelganger_for(mallory.peer_id)


    @pytest.mark.parametrize("n_workers", [1, 2], ids=["inline", "pooled"])
    def test_deployment_round_drops_the_undecryptable_addon(
        self, world, sheriff, n_workers
    ):
        """Well-formed group elements that decrypt to nothing: ``submit``
        takes them, the distance phase finds no discrete log, and that
        used to end the round for every add-on."""
        addons = [
            sheriff.install_addon(world.make_browser("ES", "Madrid"))
            for _ in range(5)
        ]
        mallory = addons[2]
        group = sheriff.crypto_group
        mallory.encrypted_profile = lambda scheme, *args, **kwargs: Ciphertext(
            alpha=group.gexp(12345),
            betas=tuple(group.gexp(1000 + i) for i in range(scheme.dimensions)),
        )
        outcome = sheriff.run_doppelganger_clustering(
            ["news.example", "blog.example"], k=2, max_iterations=2,
            n_workers=n_workers,
        )
        assert set(outcome.mapping) == {
            a.peer_id for a in addons if a is not mallory
        }
        assert not sheriff.aggregator.has_doppelganger_for(mallory.peer_id)
        assert all(
            sheriff.aggregator.has_doppelganger_for(a.peer_id)
            for a in addons if a is not mallory
        )


    @pytest.mark.parametrize("n_workers", [1, 2], ids=["inline", "pooled"])
    def test_slightly_out_of_range_peer_does_not_end_the_round(self, n_workers):
        """``[11, 10, 10]`` at ``value_bound=10`` passes the distance
        phase, then its cluster's sums do not decrypt: that cluster keeps
        its centroid and ``run_clustering`` returns a full mapping."""
        rng = random.Random(3)
        coordinator = KMeansCoordinator(
            TEST_GROUP, m=3, value_bound=10, rng=rng, n_workers=n_workers
        )
        aggregator = Aggregator(group=TEST_GROUP, rng=rng)
        aggregator.begin_collection(coordinator, n_workers=n_workers)
        points = {**{f"hi-{i}": [10, 10, 10] for i in range(5)},
                  **{f"mid-{i}": [5, 5, 5] for i in range(5)}}
        for peer_id, point in points.items():
            aggregator.submit_encrypted_profile(
                peer_id, ProfileClient(peer_id, point, 10).encrypt_profile(
                    coordinator.scheme, coordinator.public_keys, rng))
        aggregator.submit_encrypted_profile("mallory", coordinator.scheme.encrypt(
            coordinator.public_keys, profile_to_plaintext([11, 10, 10]), rng))
        coordinator.set_centroids([[10, 10, 10], [5, 5, 5]])
        mapping = aggregator.run_clustering(max_iterations=3)
        assert set(mapping) == set(points) | {"mallory"}
        assert {mapping[f"hi-{i}"] for i in range(5)} == {mapping["mallory"]}
        assert {mapping[f"mid-{i}"] for i in range(5)} == {1 - mapping["mallory"]}
        assert coordinator.centroids == [[10, 10, 10], [5, 5, 5]]
        assert coordinator.centroids_kept >= 1


class TestDoppelgangerIdService:
    def test_id_served_after_setup(self, roles):
        _, aggregator, _ = roles
        aggregator.peer_cluster = {"peer-1": 0}
        aggregator.set_doppelganger_ids({0: "token-abc"})
        assert aggregator.doppelganger_id_for("peer-1") == "token-abc"
        assert aggregator.has_doppelganger_for("peer-1")

    def test_unclustered_peer(self, roles):
        _, aggregator, _ = roles
        aggregator.set_doppelganger_ids({0: "token-abc"})
        with pytest.raises(NoDoppelgangerAssigned):
            aggregator.doppelganger_id_for("stranger")
        assert not aggregator.has_doppelganger_for("stranger")

    def test_cluster_without_doppelganger(self, roles):
        _, aggregator, _ = roles
        aggregator.peer_cluster = {"peer-1": 3}
        aggregator.set_doppelganger_ids({0: "token-abc"})
        with pytest.raises(NoDoppelgangerAssigned):
            aggregator.doppelganger_id_for("peer-1")

    def test_update_after_regeneration(self, roles):
        _, aggregator, _ = roles
        aggregator.peer_cluster = {"peer-1": 0}
        aggregator.set_doppelganger_ids({0: "old"})
        aggregator.update_doppelganger_id(0, "fresh")
        assert aggregator.doppelganger_id_for("peer-1") == "fresh"
