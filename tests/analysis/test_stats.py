"""Tests for the Sect. 7.5 statistical machinery."""

import random

import numpy as np
import pytest

from repro.analysis.stats import (
    RandomForest,
    ab_test_verdict,
    ks_pairwise,
    linear_regression,
    probability_higher,
)


class TestKsPairwise:
    def test_same_distribution_high_p(self):
        rng = random.Random(0)
        samples = {
            f"p{i}": [rng.gauss(100, 5) for _ in range(40)] for i in range(3)
        }
        results = ks_pairwise(samples)
        assert len(results) == 3
        assert all(p > 0.05 for _, p in results.values())

    def test_different_distribution_low_p(self):
        rng = random.Random(1)
        samples = {
            "normal": [rng.gauss(100, 2) for _ in range(60)],
            "shifted": [rng.gauss(115, 2) for _ in range(60)],
        }
        ((d, p),) = list(ks_pairwise(samples).values())
        assert d > 0.5
        assert p < 0.01

    def test_small_samples_skipped(self):
        assert ks_pairwise({"a": [1.0], "b": [1.0, 2.0]}) == {}


class TestProbabilityHigher:
    def test_fifty_fifty_under_ab(self):
        rng = random.Random(2)
        samples = {
            f"p{i}": [rng.choice([100.0, 107.0]) for _ in range(200)]
            for i in range(4)
        }
        probs = probability_higher(samples)
        assert all(0.35 <= p <= 0.65 for p in probs.values())

    def test_biased_point_detected(self):
        samples = {
            "high": [107.0] * 50,
            "low": [100.0] * 50,
        }
        probs = probability_higher(samples)
        assert probs["high"] == 1.0
        assert probs["low"] == 0.0

    def test_empty(self):
        assert probability_higher({}) == {}


class TestLinearRegression:
    def test_perfect_fit(self):
        X = [[float(i)] for i in range(20)]
        y = [3.0 * i + 1.0 for i in range(20)]
        result = linear_regression(X, y, ["slope"])
        assert result.r_squared == pytest.approx(1.0)
        assert result.coefficients[1] == pytest.approx(3.0)
        assert result.p_values["slope"] < 1e-6

    def test_pure_noise_not_significant(self):
        rng = random.Random(3)
        X = [[rng.random(), rng.random()] for _ in range(100)]
        y = [rng.gauss(0, 1) for _ in range(100)]
        result = linear_regression(X, y, ["a", "b"])
        assert result.r_squared < 0.2
        assert result.significant_features(alpha=0.01) == []

    def test_feature_name_mismatch(self):
        with pytest.raises(ValueError):
            linear_regression([[1.0]], [1.0], ["a", "b"])


class TestRandomForest:
    def test_learns_signal(self):
        rng = random.Random(4)
        X = [[rng.random(), rng.random()] for _ in range(200)]
        y = [10.0 * x[0] + rng.gauss(0, 0.2) for x in X]
        forest = RandomForest(n_trees=15, max_depth=5, seed=1).fit(X, y)
        assert forest.score(X, y) > 0.7
        # the informative feature dominates the importances
        assert forest.feature_importances_[0] > 0.8

    def test_no_signal_low_importance_concentration(self):
        rng = random.Random(5)
        X = [[rng.random() for _ in range(4)] for _ in range(150)]
        y = [rng.gauss(0, 1) for _ in range(150)]
        forest = RandomForest(n_trees=15, max_depth=4, seed=2).fit(X, y)
        assert forest.score(X, y) < 0.9  # cannot truly explain noise o.o.s.
        assert max(forest.feature_importances_) < 0.8

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForest().predict([[1.0]])

    def test_deterministic(self):
        X = [[float(i % 7), float(i % 3)] for i in range(60)]
        y = [float(i % 7) for i in range(60)]
        a = RandomForest(n_trees=5, seed=9).fit(X, y).predict(X[:5])
        b = RandomForest(n_trees=5, seed=9).fit(X, y).predict(X[:5])
        assert np.allclose(a, b)


class TestAbVerdict:
    def test_ab_testing_recognized(self):
        rng = random.Random(7)
        samples = {
            f"p{i}": [rng.choice([1.0, 1.07]) for _ in range(60)]
            for i in range(4)
        }
        features = [[rng.random(), rng.random()] for _ in range(60)]
        prices = [rng.choice([1.0, 1.07]) for _ in range(60)]
        verdict = ab_test_verdict(samples, features, prices, ["f1", "f2"])
        assert verdict.is_ab_testing

    def test_pdi_pd_flagged(self):
        """A point that systematically sees higher prices breaks the
        same-distribution hypothesis."""
        samples = {
            "tracked-user": [1.15] * 40,
            "clean-1": [1.0] * 40,
            "clean-2": [1.0] * 40,
        }
        verdict = ab_test_verdict(samples)
        assert not verdict.is_ab_testing

    def test_feature_driven_discrimination_flagged(self):
        rng = random.Random(8)
        samples = {"a": [1.0, 1.1] * 30, "b": [1.0, 1.1] * 30}
        features = [[float(i % 2)] for i in range(80)]
        prices = [1.0 + 0.2 * (i % 2) + rng.gauss(0, 0.001) for i in range(80)]
        verdict = ab_test_verdict(samples, features, prices, ["tracked"])
        assert not verdict.is_ab_testing
        assert "tracked" in verdict.significant_features
