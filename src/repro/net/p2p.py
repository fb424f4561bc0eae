"""Peer-to-peer overlay modelled on the peerjs/WebRTC layer of the add-on.

Every browser running the add-on registers with the overlay under a
unique peer ID (Sect. 10.2.2: "Each peer client has a unique ID, which
the system uses to track it").  The Coordinator consumes the overlay's
presence information to maintain per-location peer lists; Measurement
servers open :class:`PeerChannel` s to ask PPCs for remote page requests.

Privacy property preserved from the paper: a PPC is only ever contacted
by a Measurement server, never by the initiating peer, so it cannot
associate page requests with the initiator's identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.net.faults import ROLE_PPC, FaultPlan, PeerTimeout
from repro.net.geo import Location
from repro.obs import NULL_TELEMETRY

_PEER_ID_ALPHABET = (
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
)


def make_peer_id(rng: random.Random) -> str:
    """Generate a peerjs-style opaque identifier from ``rng``.

    Simulations pass their seeded RNG, so a chaos run's event log replays
    identically from its seed.
    """
    return "".join(rng.choice(_PEER_ID_ALPHABET) for _ in range(12))


@dataclass
class PeerRecord:
    """Presence record for one registered peer (mirrors the panel in Fig. 16)."""

    peer_id: str
    location: Location
    handler: Callable[[Any], Any]

    def row(self) -> Dict[str, str]:
        """One row of the peer-proxy monitoring panel."""
        return {
            "Peer ID": self.peer_id,
            "IP": self.location.ip,
            "Country": self.location.country,
            "Region": self.location.region,
            "City": self.location.city,
        }


class PeerChannel:
    """A point-to-point data channel to a single peer.

    With a :class:`~repro.net.faults.FaultPlan` installed on the
    overlay, each ``send`` is one delivery attempt the plan may drop,
    time out, or corrupt — exactly the flaky-volunteer behaviour the
    crowd-assisted predecessor measured.
    """

    def __init__(
        self,
        record: PeerRecord,
        faults: Optional[FaultPlan] = None,
        src: str = "measurement",
    ) -> None:
        self._record = record
        self._faults = faults
        self._src = src

    def send(self, message: Any) -> Any:
        peer_id = self._record.peer_id
        decision = (
            self._faults.decide(self._src, peer_id, role=ROLE_PPC)
            if self._faults is not None
            else None
        )
        if decision:
            if decision.kind == "drop":
                raise ConnectionError(f"request to peer {peer_id} was dropped")
            if decision.kind == "timeout":
                raise PeerTimeout(f"peer {peer_id} did not answer in time")
        reply = self._record.handler(message)
        if decision and decision.kind == "corrupt" and isinstance(reply, dict):
            reply = self._faults.corrupt_reply(reply)
        return reply


class PeerOverlay:
    """Signaling server + registry for the P2P network of PPCs."""

    def __init__(
        self, faults: Optional[FaultPlan] = None, telemetry=NULL_TELEMETRY
    ) -> None:
        self._peers: Dict[str, PeerRecord] = {}
        #: country -> its peers, in registration order (the order of
        #: ``_peers``), so a presence query scans one country
        self._by_country: Dict[str, Dict[str, PeerRecord]] = {}
        self.faults = faults
        #: telemetry: churn counters, and the Fig. 16 presence series
        #: sampled from the peer records
        registry = telemetry.registry
        self._m_churn = registry.counter(
            "sheriff_peer_churn_total",
            "Peer arrivals and departures", labelnames=("event",),
        )
        registry.sampled(
            "gauge", "sheriff_peers_online", "Peers currently online", (),
            lambda: len(self.online_peers()),
        )
        registry.sampled(
            "gauge", "sheriff_peer_info",
            "1 per online peer, location in the labels (Fig. 16)",
            ("peer_id", "ip", "country", "region", "city"),
            lambda: {
                (p.peer_id, p.location.ip, p.location.country,
                 p.location.region, p.location.city): 1
                for p in self.online_peers()
            },
        )

    def register(
        self,
        peer_id: str,
        location: Location,
        handler: Callable[[Any], Any],
    ) -> PeerRecord:
        record = PeerRecord(peer_id=peer_id, location=location, handler=handler)
        previous = self._peers.get(peer_id)
        self._peers[peer_id] = record  # a re-registered id keeps its place
        if previous is not None and previous.location.country != location.country:
            self._index_country(previous.location.country)
            self._index_country(location.country)
        else:
            self._by_country.setdefault(location.country, {})[peer_id] = record
        self._m_churn.inc(event="joined")
        return record

    def _index_country(self, country: str) -> None:
        """Rebuild one country's index from the registry."""
        peers = {
            peer_id: p for peer_id, p in self._peers.items()
            if p.location.country == country
        }
        if peers:
            self._by_country[country] = peers
        else:
            self._by_country.pop(country, None)

    def connect(self, peer_id: str, src: str = "measurement") -> PeerChannel:
        try:
            record = self._peers[peer_id]
        except KeyError:
            raise ConnectionError(f"unknown peer {peer_id!r}") from None
        return PeerChannel(record, faults=self.faults, src=src)

    def location_of(self, peer_id: str) -> Optional[Location]:
        """The peer's registered location, or None for unknown peers."""
        record = self._peers.get(peer_id)
        return record.location if record is not None else None

    # -- presence queries (used by the Coordinator) ------------------------
    def online_peers(self) -> List[PeerRecord]:
        """Every registered peer: a peer is online while it is registered."""
        return list(self._peers.values())

    def peers_in_country(self, country: str) -> List[PeerRecord]:
        """The country's peers, in registration order."""
        return list(self._by_country.get(country, {}).values())

    def peers_in_city(self, country: str, city: str) -> List[PeerRecord]:
        """The city's peers, in registration order."""
        return [
            p for p in self._by_country.get(country, {}).values()
            if p.location.city == city
        ]

    def monitoring_rows(self) -> List[Dict[str, str]]:
        """The peer-proxy monitoring panel of Fig. 16."""
        return [p.row() for p in self.online_peers()]
