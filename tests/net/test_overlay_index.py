"""The overlay's country index answers what a scan of the registry does.

``PeerOverlay`` keeps its peers per country, in registration order, so
a presence query reads one country.  Over random ``register`` /
re-``register`` sequences (a known id, possibly somewhere else),
``peers_in_country`` and ``peers_in_city`` equal a linear scan of every
registered peer, in order, and the Coordinator's ``select_ppcs`` returns
what the two-tier scan it used to run returns for the same seed: same
lists, same order, so the same shuffles.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coordinator import Coordinator
from repro.core.dispatch import RequestDistributor
from repro.core.whitelist import Whitelist
from repro.net.events import Clock
from repro.net.geo import GeoDatabase, Location
from repro.net.p2p import PeerOverlay

PLACES = (("ES", "Madrid"), ("ES", "Barcelona"), ("FR", "Paris"), ("FR", "Lyon"), ("US", "Boston"))
PEERS = [f"peer-{i}" for i in range(8)]

_ops = st.lists(
    st.tuples(st.integers(0, len(PEERS) - 1), st.integers(0, len(PLACES) - 1)),
    max_size=40,
)


def _location(place):
    country, city = PLACES[place]
    return Location(country=country, region=country, city=city, ip="10.0.0.1")


def _scan(overlay, country, city=None):
    return [
        p.peer_id for p in overlay._peers.values()
        if p.location.country == country
        and (city is None or p.location.city == city)
    ]


def _two_tier_scan(overlay, rng, initiator, location, limit):
    """``select_ppcs`` as it was: a city scan, then a country scan."""
    same_city = [
        p for p in _scan(overlay, location.country, location.city) if p != initiator
    ]
    same_country = [
        p for p in _scan(overlay, location.country)
        if p != initiator and p not in same_city
    ]
    rng.shuffle(same_city)
    rng.shuffle(same_country)
    return (same_city + same_country)[:limit]


@given(ops=_ops, seed=st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_country_index_equals_a_scan(ops, seed):
    overlay = PeerOverlay()
    coordinator = Coordinator(
        Whitelist([]), RequestDistributor(), overlay, GeoDatabase(), Clock(),
        rng=random.Random(seed),
    )
    reference = random.Random(seed)
    for peer, place in ops:
        peer_id = PEERS[peer]
        overlay.register(peer_id, _location(place), lambda m: m)
        for country, city in PLACES:
            assert [p.peer_id for p in overlay.peers_in_country(country)] == _scan(
                overlay, country)
            assert [p.peer_id for p in overlay.peers_in_city(country, city)] == _scan(
                overlay, country, city)
        initiator, location = PEERS[(peer + 1) % len(PEERS)], _location(place)
        assert coordinator.select_ppcs(initiator, location) == _two_tier_scan(
            overlay, reference, initiator, location, coordinator.max_ppcs_per_request)
