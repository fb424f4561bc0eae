"""Tests for the simulation's latency model."""

import pytest

from repro.net.geo import GeoDatabase
from repro.net.sim import LatencyModel


@pytest.fixture
def geodb():
    return GeoDatabase()


class TestLatencyModel:
    def test_tiers(self, geodb):
        model = LatencyModel(jitter=0.0)
        madrid = geodb.make_location("ES", "Madrid")
        madrid2 = geodb.make_location("ES", "Madrid")
        barcelona = geodb.make_location("ES", "Barcelona")
        paris = geodb.make_location("FR", "Paris")
        assert model.latency(madrid, madrid2) == LatencyModel.SAME_CITY
        assert model.latency(madrid, barcelona) == LatencyModel.SAME_COUNTRY
        assert model.latency(madrid, paris) == LatencyModel.INTERNATIONAL

    def test_jitter_varies_but_positive(self, geodb):
        model = LatencyModel(jitter=0.5)
        a = geodb.make_location("ES", "Madrid")
        b = geodb.make_location("FR", "Paris")
        samples = [model.latency(a, b) for _ in range(50)]
        assert all(s > 0 for s in samples)
        assert len(set(samples)) > 1
