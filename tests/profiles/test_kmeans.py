"""Tests for plaintext k-means and the silhouette score."""

import random

import pytest

from repro.profiles.kmeans import lloyd_kmeans, silhouette_score


def two_blobs(n=10, seed=0):
    rng = random.Random(seed)
    points = {}
    for i in range(n):
        points[f"a{i}"] = [rng.uniform(0, 1), rng.uniform(0, 1)]
        points[f"b{i}"] = [rng.uniform(9, 10), rng.uniform(9, 10)]
    return points


class TestLloyd:
    def test_separates_blobs(self):
        points = two_blobs()
        outcome = lloyd_kmeans(points, k=2, rng=random.Random(1))
        a_labels = {outcome.assignments[f"a{i}"] for i in range(10)}
        b_labels = {outcome.assignments[f"b{i}"] for i in range(10)}
        assert len(a_labels) == 1 and len(b_labels) == 1
        assert a_labels != b_labels

    def test_converges(self):
        outcome = lloyd_kmeans(two_blobs(), k=2, rng=random.Random(2))
        assert outcome.converged

    def test_initial_centroids_honored(self):
        points = {"p1": [0.0], "p2": [10.0]}
        outcome = lloyd_kmeans(points, k=2, initial_centroids=[[0.0], [10.0]])
        assert outcome.assignments["p1"] != outcome.assignments["p2"]

    def test_quantize_rounds_centroids(self):
        points = {"a": [1], "b": [2]}
        outcome = lloyd_kmeans(points, k=1, initial_centroids=[[0]], quantize=True)
        assert outcome.centroids[0] == [2]  # round(1.5) == 2 in banker's? no: round(3/2)=2

    def test_unquantized_centroids_are_means(self):
        points = {"a": [1.0], "b": [2.0]}
        outcome = lloyd_kmeans(points, k=1, initial_centroids=[[0.0]])
        assert outcome.centroids[0] == [1.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lloyd_kmeans({}, k=2)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            lloyd_kmeans({"a": [1.0]}, k=0)

    def test_deterministic_with_seed(self):
        points = two_blobs(seed=4)
        a = lloyd_kmeans(points, k=3, rng=random.Random(5))
        b = lloyd_kmeans(points, k=3, rng=random.Random(5))
        assert a.assignments == b.assignments


class TestSilhouette:
    def test_perfect_separation_near_one(self):
        points = [[0, 0], [0.1, 0], [10, 10], [10, 10.1]]
        labels = [0, 0, 1, 1]
        assert silhouette_score(points, labels) > 0.9

    def test_bad_clustering_low_score(self):
        points = [[0, 0], [10, 10], [0.1, 0], [10, 10.1]]
        labels = [0, 0, 1, 1]  # mixes the blobs
        assert silhouette_score(points, labels) < 0.2

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            silhouette_score([[0], [1]], [0, 0])

    def test_singleton_cluster_scores_zero(self):
        points = [[0], [0.1], [100]]
        labels = [0, 0, 1]
        score = silhouette_score(points, labels)
        assert -1.0 <= score <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            silhouette_score([[0], [1]], [0])

    def test_score_in_range(self):
        rng = random.Random(6)
        points = [[rng.uniform(0, 10), rng.uniform(0, 10)] for _ in range(30)]
        labels = [rng.randrange(3) for _ in range(30)]
        if len(set(labels)) >= 2:
            assert -1.0 <= silhouette_score(points, labels) <= 1.0


class TestBestSilhouette:
    def test_right_k_wins(self):
        points = two_blobs(n=8, seed=7)
        ids = sorted(points)

        def score(k):
            outcome = lloyd_kmeans(points, k, rng=random.Random(2017))
            return silhouette_score([points[i] for i in ids],
                                    [outcome.assignments[i] for i in ids])

        assert score(2) > score(4)
