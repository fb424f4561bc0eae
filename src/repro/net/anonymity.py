"""A Tor-style anonymity channel for doppelganger state requests.

Sect. 3.7: "To prevent the Coordinator from learning to which centroid
a PPC maps, the PPC contacts the Coordinator through an anonymity
network to obtain the client-side state of the doppelganger."  The
bearer-token design exists *because* of this hop: the requester is
anonymous, so possession of the 256-bit doppelganger ID is the only
credential.

This module models a small onion-routed circuit: the sender wraps the
request in per-hop layers, each relay strips one layer and learns only
its predecessor and successor, and the exit delivers the payload to the
destination without any sender identity attached.  Layered sealing is
modelled with per-relay random pads (information-theoretic against our
honest-but-curious relays) — the point here is the *metadata* property,
which the tests assert: the destination observes the exit relay, never
the sender.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence


@dataclass
class RelayObservation:
    """What one relay could write down about a forwarded message."""

    previous_hop: str
    next_hop: str


class Relay:
    """One onion relay: strips a layer, forwards the rest."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._pads: Dict[str, bytes] = {}
        self.observations: List[RelayObservation] = []

    # -- circuit setup -----------------------------------------------------
    def establish(self, circuit_id: str) -> bytes:
        """Key agreement for one circuit; returns the shared pad."""
        pad = secrets.token_bytes(32)
        self._pads[circuit_id] = pad
        return pad

    # -- forwarding ------------------------------------------------------------
    def peel(self, circuit_id: str, sealed: bytes) -> bytes:
        pad = self._pads.get(circuit_id)
        if pad is None:
            raise PermissionError(f"relay {self.name}: unknown circuit")
        return _xor(sealed, pad)

    def teardown(self, circuit_id: str) -> None:
        self._pads.pop(circuit_id, None)


def _xor(data: bytes, pad: bytes) -> bytes:
    return bytes(b ^ pad[i % len(pad)] for i, b in enumerate(data))


@dataclass
class AnonymousRequest:
    """What the destination receives: a payload and a reply path handle."""

    payload: Any
    exit_relay: str  # the only network identity visible to the server


class AnonymityNetwork:
    """A registry of relays plus circuit construction and sending."""

    def __init__(self, n_relays: int = 3) -> None:
        if n_relays < 1:
            raise ValueError("need at least one relay")
        self.relays: Dict[str, Relay] = {
            f"relay-{i}": Relay(f"relay-{i}") for i in range(n_relays)
        }

    def build_circuit(
        self, hops: Optional[Sequence[str]] = None
    ) -> "Circuit":
        if hops is None:
            hops = list(self.relays)
        if not hops:
            raise ValueError("empty circuit")
        return Circuit(self, [self.relays[h] for h in hops])


class Circuit:
    """One sender's onion circuit through an ordered list of relays."""

    def __init__(self, network: AnonymityNetwork, relays: List[Relay]) -> None:
        self._network = network
        self._relays = relays
        self.circuit_id = secrets.token_hex(8)
        # telescoping key establishment: the sender shares one pad per hop
        self._pads = [r.establish(self.circuit_id) for r in relays]

    def send(
        self,
        payload_bytes: bytes,
        destination: Callable[[AnonymousRequest], Any],
        sender_name: str = "sender",
    ) -> Any:
        """Onion-route the payload; returns the destination's response.

        Each relay records only (previous hop, next hop); the
        destination sees the exit relay, never ``sender_name``.
        """
        # seal inside-out: exit pad first, entry pad last
        sealed = payload_bytes
        for pad in reversed(self._pads):
            sealed = _xor(sealed, pad)
        previous = sender_name
        for i, relay in enumerate(self._relays):
            next_hop = (
                self._relays[i + 1].name if i + 1 < len(self._relays)
                else "destination"
            )
            relay.observations.append(
                RelayObservation(previous_hop=previous, next_hop=next_hop)
            )
            sealed = relay.peel(self.circuit_id, sealed)
            previous = relay.name
        if sealed != payload_bytes:
            raise RuntimeError("onion unwrapping failed")
        request = AnonymousRequest(
            payload=payload_bytes, exit_relay=self._relays[-1].name
        )
        return destination(request)

    def close(self) -> None:
        for relay in self._relays:
            relay.teardown(self.circuit_id)
