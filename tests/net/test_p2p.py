"""Tests for the peer overlay."""

import random

import pytest

from repro.net.geo import GeoDatabase
from repro.net.p2p import PeerOverlay, make_peer_id


@pytest.fixture
def geodb():
    return GeoDatabase()


@pytest.fixture
def overlay(geodb):
    overlay = PeerOverlay()
    overlay.register("es-1", geodb.make_location("ES", "Madrid"), lambda m: ("es-1", m))
    overlay.register("es-2", geodb.make_location("ES", "Barcelona"), lambda m: ("es-2", m))
    overlay.register("fr-1", geodb.make_location("FR", "Paris"), lambda m: ("fr-1", m))
    return overlay


class TestPresence:
    def test_peers_in_country(self, overlay):
        assert {p.peer_id for p in overlay.peers_in_country("ES")} == {"es-1", "es-2"}

    def test_peers_in_city(self, overlay):
        assert [p.peer_id for p in overlay.peers_in_city("ES", "Madrid")] == ["es-1"]

    def test_offline_peers_excluded(self, overlay):
        overlay.set_online("es-1", False)
        assert {p.peer_id for p in overlay.peers_in_country("ES")} == {"es-2"}

    def test_unregister(self, overlay):
        overlay.unregister("fr-1")
        assert overlay.peers_in_country("FR") == []

    def test_monitoring_rows_have_panel_columns(self, overlay):
        rows = overlay.monitoring_rows()
        assert len(rows) == 3
        assert set(rows[0]) == {"Peer ID", "IP", "Country", "Region", "City"}


class TestChannels:
    def test_connect_and_send(self, overlay):
        channel = overlay.connect("es-1")
        assert channel.send("hello") == ("es-1", "hello")

    def test_connect_unknown_peer(self, overlay):
        with pytest.raises(ConnectionError):
            overlay.connect("nope")

    def test_send_to_offline_peer(self, overlay):
        channel = overlay.connect("es-1")
        overlay.set_online("es-1", False)
        with pytest.raises(ConnectionError):
            channel.send("hello")

    def test_is_online(self, overlay):
        assert overlay.is_online("es-1")
        assert not overlay.is_online("ghost")


def test_make_peer_id_unique():
    rng = random.Random(0)
    ids = {make_peer_id(rng) for _ in range(100)}
    assert len(ids) == 100
