"""Tests for the anonymity channel (Sect. 3.7's bearer-token hop)."""

import pytest

from repro.net.anonymity import AnonymityNetwork


@pytest.fixture
def network():
    return AnonymityNetwork(n_relays=3)


class TestOnionRouting:
    def test_payload_delivered_intact(self, network):
        received = []

        def destination(request):
            received.append(request.payload)
            return "ok"

        circuit = network.build_circuit()
        response = circuit.send(b"token-123", destination, sender_name="peer-A")
        assert response == "ok"
        assert received == [b"token-123"]

    def test_destination_sees_exit_relay_not_sender(self, network):
        seen = []
        circuit = network.build_circuit()
        circuit.send(b"x1", lambda r: seen.append(r.exit_relay), "peer-A")
        assert seen == [circuit._relays[-1].name]
        assert "peer-A" not in seen

    def test_only_entry_relay_sees_sender(self, network):
        circuit = network.build_circuit()
        circuit.send(b"x1", lambda r: None, sender_name="peer-A")
        entry, middle, exit_ = circuit._relays
        assert entry.observations[-1].previous_hop == "peer-A"
        assert middle.observations[-1].previous_hop == entry.name
        assert exit_.observations[-1].previous_hop == middle.name
        # no relay besides the entry ever saw the sender
        for relay in (middle, exit_):
            assert all(o.previous_hop != "peer-A" for o in relay.observations)

    def test_no_single_relay_links_sender_to_destination(self, network):
        circuit = network.build_circuit()
        circuit.send(b"x1", lambda r: None, sender_name="peer-A")
        for relay in circuit._relays:
            obs = relay.observations[-1]
            # nobody sees both endpoints
            assert not (obs.previous_hop == "peer-A"
                        and obs.next_hop == "destination")

    def test_closed_circuit_unusable(self, network):
        circuit = network.build_circuit()
        circuit.close()
        with pytest.raises(PermissionError):
            circuit.send(b"x1", lambda r: None)

    def test_single_relay_circuit(self, network):
        circuit = network.build_circuit(hops=["relay-1"])
        out = circuit.send(b"x9", lambda r: r.payload)
        assert out == b"x9"

    def test_empty_circuit_rejected(self, network):
        with pytest.raises(ValueError):
            network.build_circuit(hops=[])

    def test_at_least_one_relay_required(self):
        with pytest.raises(ValueError):
            AnonymityNetwork(n_relays=0)
