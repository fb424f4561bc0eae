"""Tests for the privacy-preserving k-means protocol."""

import random

import pytest

from repro.crypto.elgamal import Ciphertext
from repro.crypto.secure_kmeans import (
    KMeansAggregator,
    KMeansCoordinator,
    ProfileClient,
    centroid_function_vector,
    iterate_until_stable,
    profile_to_plaintext,
    run_secure_kmeans,
)
from repro.crypto.group import TEST_GROUP
from repro.obs import NULL_TELEMETRY
from repro.profiles.kmeans import lloyd_kmeans


def clustered_points(n_per_cluster=6, seed=0):
    """Three well-separated integer clusters in [0, 10]^4."""
    rng = random.Random(seed)
    anchors = [(0, 0, 0, 0), (10, 10, 0, 0), (0, 0, 10, 10)]
    points = {}
    for c, anchor in enumerate(anchors):
        for i in range(n_per_cluster):
            point = [max(0, min(10, a + rng.choice((-1, 0, 1)))) for a in anchor]
            points[f"c{c}-{i}"] = point
    return points, anchors


class TestEncodings:
    def test_profile_encoding(self):
        assert profile_to_plaintext([2, 3]) == [13, 1, 2, 3]

    def test_centroid_encoding(self):
        assert centroid_function_vector([2, 3]) == [1, 13, -4, -6]

    def test_encoding_dot_product_is_distance(self):
        a, b = [1, 2, 3], [4, 6, 3]
        c = profile_to_plaintext(a)
        s = centroid_function_vector(b)
        dot = sum(x * y for x, y in zip(c, s))
        assert dot == sum((x - y) ** 2 for x, y in zip(a, b))


class TestClientValidation:
    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ProfileClient("x", [0, 200], value_bound=100)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ProfileClient("x", [-1, 0], value_bound=100)


class TestHostileCiphertexts:
    """Ciphertexts come from other users' browsers: anything that is not
    a vector of group elements is refused at ``submit``, by peer name,
    instead of aborting the distance phase for everyone."""

    T = 5  # m + 2

    @pytest.fixture
    def parties(self):
        rng = random.Random(5)
        coordinator = KMeansCoordinator(TEST_GROUP, m=3, value_bound=10, rng=rng)
        return coordinator, KMeansAggregator(TEST_GROUP, coordinator, rng=rng), rng

    @pytest.mark.parametrize("alpha, beta", [
        (0, 0),                  # no inverse: used to kill batch_invert
        (TEST_GROUP.p, 7),       # ≡ 0 mod p
        (-3, 7),
        ("x", 7),
        (7, 0),
        (7, TEST_GROUP.p + 1),
        (7, 2.0),
        (7, None),
        (True, 7),
    ], ids=["zero", "alpha-p", "alpha-negative", "alpha-str", "beta-zero",
            "beta-above-p", "beta-float", "beta-none", "alpha-bool"])
    def test_bad_element_refused_at_submit(self, parties, alpha, beta):
        _, aggregator, _ = parties
        with pytest.raises(ValueError, match="'mallory'"):
            aggregator.submit(
                "mallory", Ciphertext(alpha=alpha, betas=(7,) * (self.T - 1) + (beta,))
            )
        assert aggregator.n_clients == 0

    def test_boundary_elements_accepted(self, parties):
        _, aggregator, _ = parties
        p = TEST_GROUP.p
        aggregator.submit("edge", Ciphertext(alpha=1, betas=(p - 1,) * self.T))
        assert aggregator.n_clients == 1

    def test_round_completes_without_the_refused_peer(self, parties):
        coordinator, aggregator, rng = parties
        points = {"lo-1": [0, 1, 0], "lo-2": [1, 0, 1],
                  "hi-1": [9, 10, 9], "hi-2": [10, 9, 10]}
        for peer_id, point in points.items():
            aggregator.submit(
                peer_id,
                ProfileClient(peer_id, point, 10).encrypt_profile(
                    coordinator.scheme, coordinator.public_keys, rng
                ),
            )
        with pytest.raises(ValueError):
            aggregator.submit("mallory", Ciphertext(alpha=0, betas=(0,) * self.T))
        coordinator.set_centroids([[0, 0, 0], [10, 10, 10]])
        mapping, _ = aggregator.assign_all()
        assert set(mapping) == set(points)
        assert mapping["lo-1"] == mapping["lo-2"] != mapping["hi-1"] == mapping["hi-2"]


class TestUndecryptablePeer:
    """A ciphertext can be well-formed — every element an int in
    [1, p-1], so ``submit`` takes it — and still decrypt to nothing
    within the agreed bounds.  Its sender loses its cluster; the round,
    which used to die of ``DiscreteLogError`` for everyone, goes on."""

    POINTS = {"lo-1": [0, 1, 0], "lo-2": [1, 0, 1], "lo-3": [1, 1, 0],
              "hi-1": [9, 10, 9], "hi-2": [10, 9, 10], "hi-3": [9, 9, 10]}
    CENTROIDS = [[0, 0, 0], [10, 10, 10]]

    @staticmethod
    def _random_elements(coordinator, rng):
        group = coordinator.group
        return Ciphertext(
            alpha=group.gexp(rng.randrange(1, group.q)),
            betas=tuple(group.gexp(rng.randrange(1, group.q))
                        for _ in range(coordinator.t)),
        )

    @staticmethod
    def _out_of_range_profile(coordinator, rng):
        # an honest encryption of a point the client-side check refuses
        return coordinator.scheme.encrypt(
            coordinator.public_keys, profile_to_plaintext([500, 500, 500]), rng
        )

    def _parties(self, forge, n_workers):
        rng = random.Random(5)
        coordinator = KMeansCoordinator(
            TEST_GROUP, m=3, value_bound=10, rng=rng, n_workers=n_workers
        )
        aggregator = KMeansAggregator(
            TEST_GROUP, coordinator, rng=rng, n_workers=n_workers
        )
        peers = list(self.POINTS.items())
        for peer_id, point in peers[:3]:
            aggregator.submit(peer_id, ProfileClient(peer_id, point, 10).encrypt_profile(
                coordinator.scheme, coordinator.public_keys, rng))
        aggregator.submit("mallory", forge(coordinator, rng))  # mid-order
        for peer_id, point in peers[3:]:
            aggregator.submit(peer_id, ProfileClient(peer_id, point, 10).encrypt_profile(
                coordinator.scheme, coordinator.public_keys, rng))
        coordinator.set_centroids(self.CENTROIDS)
        return coordinator, aggregator

    @pytest.mark.parametrize("n_workers", [1, 2], ids=["inline", "pooled"])
    @pytest.mark.parametrize("forge", ["_random_elements", "_out_of_range_profile"])
    def test_costs_its_sender_a_cluster_not_everyone_the_round(self, forge, n_workers):
        coordinator, aggregator = self._parties(getattr(self, forge), n_workers)
        converged, seconds = iterate_until_stable(
            aggregator, halt_threshold=0.0, max_iterations=4
        )
        plain = lloyd_kmeans(
            self.POINTS, k=2, initial_centroids=self.CENTROIDS,
            max_iterations=4, halt_threshold=0.0, quantize=True,
        )
        assert "mallory" not in aggregator.assignments
        assert aggregator.n_clients == len(self.POINTS)
        assert aggregator.assignments == plain.assignments
        assert coordinator.centroids == [list(map(int, c)) for c in plain.centroids]
        assert (converged, len(seconds)) == (True, plain.iterations)

    def test_dropped_before_any_aggregate(self):
        coordinator, aggregator = self._parties(self._random_elements, 1)
        mapping, _ = aggregator.assign_all()
        assert set(mapping) == set(self.POINTS)
        aggregates = aggregator.aggregate_clusters()
        assert sum(cardinality for _, cardinality in aggregates.values()) == 6
        for cluster, (aggregate, cardinality) in aggregates.items():
            coordinator.update_centroid(cluster, aggregate, cardinality)  # no raise

    def test_round_of_nothing_but_undecryptable_peers_ends(self):
        rng = random.Random(8)
        coordinator = KMeansCoordinator(TEST_GROUP, m=3, value_bound=10, rng=rng)
        aggregator = KMeansAggregator(TEST_GROUP, coordinator, rng=rng)
        for name in ("m1", "m2"):
            aggregator.submit(name, self._random_elements(coordinator, rng))
        coordinator.set_centroids(self.CENTROIDS)
        converged, seconds = iterate_until_stable(aggregator, 0.02, 5)
        assert (converged, len(seconds)) == (False, 1)
        assert aggregator.assignments == {} and aggregator.n_clients == 0
        assert coordinator.centroids == self.CENTROIDS


class TestSlightlyOutOfRangePeer:
    """An honest encryption of ``[11, 10, 10]`` at ``value_bound=10``
    passes the distance phase (its bound is m·Q²) but pushes its
    cluster's first coordinate sum to 61 > 6·10, which has no discrete
    log within the update bound.  That used to raise out of
    ``iterate_until_stable``; the cluster now keeps its centroid."""

    CENTROIDS = [[10, 10, 10], [5, 5, 5]]

    def _parties(self, n_workers, telemetry=NULL_TELEMETRY):
        rng = random.Random(5)
        coordinator = KMeansCoordinator(
            TEST_GROUP, m=3, value_bound=10, rng=rng, n_workers=n_workers,
            telemetry=telemetry,
        )
        aggregator = KMeansAggregator(
            TEST_GROUP, coordinator, rng=rng, n_workers=n_workers
        )
        for i in range(5):
            for name, point in ((f"hi-{i}", [10, 10, 10]), (f"mid-{i}", [5, 5, 5])):
                aggregator.submit(name, ProfileClient(name, point, 10).encrypt_profile(
                    coordinator.scheme, coordinator.public_keys, rng))
        aggregator.submit("mallory", coordinator.scheme.encrypt(
            coordinator.public_keys, profile_to_plaintext([11, 10, 10]), rng))
        coordinator.set_centroids(self.CENTROIDS)
        return coordinator, aggregator

    @pytest.mark.parametrize("n_workers", [1, 2], ids=["inline", "pooled"])
    def test_its_cluster_keeps_the_centroid_and_the_round_ends(self, n_workers):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        coordinator, aggregator = self._parties(n_workers, telemetry)
        converged, seconds = iterate_until_stable(
            aggregator, halt_threshold=0.0, max_iterations=3
        )
        assert converged and len(seconds) == 2  # the mapping never moved
        assert coordinator.centroids == self.CENTROIDS
        assert aggregator.assignments == {
            **{f"hi-{i}": 0 for i in range(5)},
            **{f"mid-{i}": 1 for i in range(5)},
            "mallory": 0,
        }
        # cluster 0 kept its centroid each iteration; cluster 1 updated
        assert coordinator.centroids_kept == len(seconds)
        kept = telemetry.registry.get("sheriff_crypto_centroids_kept_total")
        assert kept.value() == len(seconds)
        assert not aggregator.pool.started and not coordinator.pool.started

    def test_the_update_keeps_only_the_cluster_that_does_not_decrypt(self):
        coordinator, aggregator = self._parties(1)
        coordinator.set_centroids([[9, 9, 9], [4, 4, 4]])
        aggregator.assign_all()
        for cluster, (aggregate, cardinality) in aggregator.aggregate_clusters().items():
            coordinator.update_centroid(cluster, aggregate, cardinality)
        assert coordinator.centroids == [[9, 9, 9], [5, 5, 5]]
        assert coordinator.centroids_kept == 1


class TestProtocol:
    def test_clusters_separable_data(self):
        points, anchors = clustered_points()
        result = run_secure_kmeans(
            points, k=3, value_bound=10, rng=random.Random(1),
            initial_centroids=anchors,
        )
        assert result.converged
        # every anchor cluster ends up pure
        for c in range(3):
            labels = {result.assignments[f"c{c}-{i}"] for i in range(6)}
            assert len(labels) == 1
        # distinct clusters got distinct labels
        all_labels = {result.assignments[f"c{c}-0"] for c in range(3)}
        assert len(all_labels) == 3

    def test_centroids_near_anchors(self):
        points, anchors = clustered_points()
        result = run_secure_kmeans(
            points, k=3, value_bound=10, rng=random.Random(1),
            initial_centroids=anchors,
        )
        for centroid, anchor in zip(result.centroids, anchors):
            assert sum((c - a) ** 2 for c, a in zip(centroid, anchor)) <= 12

    def test_matches_plaintext_kmeans_exactly(self):
        """Secure ≡ plaintext given the same initial centroids (the
        strongest end-to-end correctness property of the protocol)."""
        points, anchors = clustered_points(n_per_cluster=5, seed=3)
        secure = run_secure_kmeans(
            points, k=3, value_bound=10, rng=random.Random(2),
            initial_centroids=anchors, max_iterations=6, halt_threshold=0.0,
        )
        plain = lloyd_kmeans(
            points, k=3, initial_centroids=anchors,
            max_iterations=6, halt_threshold=0.0, quantize=True,
        )
        assert secure.assignments == plain.assignments
        assert [list(map(int, c)) for c in plain.centroids] == secure.centroids
        assert secure.iterations == plain.iterations

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            run_secure_kmeans({}, k=2)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            run_secure_kmeans({"a": [1, 2], "b": [1, 2, 3]}, k=1)

    def test_iteration_timings_recorded(self):
        points, anchors = clustered_points(n_per_cluster=3)
        result = run_secure_kmeans(
            points, k=3, value_bound=10, rng=random.Random(4),
            initial_centroids=anchors,
        )
        assert len(result.iteration_seconds) == result.iterations
        assert result.total_seconds > 0


class TestPrivacyBoundaries:
    def test_coordinator_never_sees_plaintext_points(self):
        """The Coordinator receives only masked ciphertexts: the group
        elements it evaluates are not the true g^{d²}."""
        rng = random.Random(5)
        coordinator = KMeansCoordinator(TEST_GROUP, m=3, value_bound=10, rng=rng)
        aggregator = KMeansAggregator(TEST_GROUP, coordinator, rng=rng)
        client = ProfileClient("a", [1, 2, 3], value_bound=10)
        aggregator.submit(
            "a", client.encrypt_profile(coordinator.scheme, coordinator.public_keys, rng)
        )
        coordinator.set_centroids([[1, 2, 3]])
        masked, nu, g_nu = aggregator._mask(aggregator._ciphertexts["a"])
        assert g_nu == TEST_GROUP.gexp(nu)
        gammas = coordinator.distance_elements_batch([(0, masked.alpha, masked.betas)])
        # distance is 0, so unmasked element would be identity; masked is not
        assert gammas[0][0] != 1
        unmasked = TEST_GROUP.div(gammas[0][0], g_nu)
        assert unmasked == 1  # g^{d²} with d² = 0

    def test_aggregator_learns_correct_mapping(self):
        points, anchors = clustered_points(n_per_cluster=4)
        result = run_secure_kmeans(
            points, k=3, value_bound=10, rng=random.Random(6),
            initial_centroids=anchors,
        )
        assert set(result.assignments) == set(points)

    def test_multiworker_matches_single(self):
        points, anchors = clustered_points(n_per_cluster=4, seed=9)
        single = run_secure_kmeans(
            points, k=3, value_bound=10, rng=random.Random(7),
            initial_centroids=anchors, n_workers=1,
        )
        multi = run_secure_kmeans(
            points, k=3, value_bound=10, rng=random.Random(7),
            initial_centroids=anchors, n_workers=2,
        )
        assert single.assignments == multi.assignments
        assert single.centroids == multi.centroids
