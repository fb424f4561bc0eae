"""Tests for the wire protocol: envelopes, codec, framing."""

import json

import pytest

from repro.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameTooLarge,
    ProtocolError,
    Request,
    Response,
    decode,
    encode,
    frame_sizes,
    from_wire,
    pack_frame,
    read_frame,
    split_frame,
    to_wire,
)
from repro.net.transport import SimTransport


def nested(depth):
    """A list ``depth`` levels deep — past any recursion limit at 100 000."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


def make_request(**overrides):
    fields = dict(
        call_id=1, src="addon-0", dst="db",
        method="sp_record_request", payload={"job_id": "j1", "n": 3},
    )
    fields.update(overrides)
    return Request(**fields)


class TestEnvelopes:
    def test_request_round_trip(self):
        req = make_request()
        assert from_wire(to_wire(req)) == req

    def test_response_round_trip(self):
        resp = Response(call_id=1, ok=True, result={"rows": 4})
        assert from_wire(to_wire(resp)) == resp

    def test_error_response_round_trip(self):
        resp = Response(
            call_id=2, ok=False, result=None,
            error_kind="timeout", error_message="deadline exceeded",
        )
        back = from_wire(to_wire(resp))
        assert back.error_kind == "timeout"
        assert back.error_message == "deadline exceeded"

    def test_wire_dict_carries_version(self):
        assert to_wire(make_request())["v"] == PROTOCOL_VERSION

    def test_version_mismatch_rejected(self):
        wire = to_wire(make_request())
        wire["v"] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError):
            from_wire(wire)

    def test_unknown_type_rejected(self):
        wire = to_wire(make_request())
        wire["type"] = "gossip"
        with pytest.raises(ProtocolError):
            from_wire(wire)

    def test_non_dict_rejected(self):
        with pytest.raises(ProtocolError):
            from_wire([1, 2, 3])


class TestCodec:
    def test_encode_is_canonical(self):
        """Key order in the payload never changes the bytes — the
        row-identity guarantee starts here."""
        a = make_request(payload={"b": 1, "a": 2})
        b = make_request(payload={"a": 2, "b": 1})
        assert encode(a) == encode(b)

    def test_encode_is_valid_compact_json(self):
        raw = encode(make_request())
        assert b", " not in raw and b": " not in raw
        json.loads(raw)

    def test_decode_round_trip(self):
        req = make_request()
        assert decode(encode(req)) == req

    def test_tuples_normalize_to_lists(self):
        """Both transports normalize identically: anything surviving
        encode→decode has tuples flattened to lists."""
        req = make_request(payload={"rows": ({"x": (1, 2)},)})
        assert decode(encode(req)).payload == {"rows": [{"x": [1, 2]}]}

    def test_unserializable_payload_raises(self):
        with pytest.raises(ProtocolError):
            encode(make_request(payload={"f": object()}))

    def test_decode_garbage_raises(self):
        with pytest.raises(ProtocolError):
            decode(b"\xff\xfenot json")

    @pytest.mark.parametrize(
        "body",
        [
            b"[" * 200_000,  # RecursionError inside the JSON scanner
            b'{"v":1,"type":"request","id":1e999,"src":"a","dst":"b","method":"m"}',
            b'{"v":1,"type":"response","id":1e999,"ok":true}',  # OverflowError
            b'{"v":1,"type":"response","id":' + b"9" * 5000 + b',"ok":true}',
        ],
        ids=["deep-nesting", "infinite-request-id", "infinite-response-id", "huge-id"],
    )
    def test_decode_hostile_frame_raises_protocol_error(self, body):
        """Nothing but ProtocolError may leave ``decode``: the serving
        thread and ``SocketTransport.call`` catch exactly that."""
        with pytest.raises(ProtocolError):
            decode(body)
        with pytest.raises(ProtocolError):
            decode(bytearray(body))

    def test_boolean_is_not_a_protocol_version(self):
        wire = to_wire(make_request())
        wire["v"] = True  # True == 1 == PROTOCOL_VERSION
        with pytest.raises(ProtocolError):
            from_wire(wire)


class TestEnvelopeFieldTypes:
    """Envelope fields are checked, never coerced: a coerced ``ok`` reads
    a failure as a success and drops its error."""

    FAILURE = {"v": 1, "type": "response", "id": 7, "ok": False,
               "error_kind": "remote", "error_message": "boom"}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("id", "7"), ("id", 7.9), ("id", True), ("id", None),
            ("src", [1]), ("src", 3), ("dst", None), ("method", {"m": 1}),
        ],
    )
    def test_request_field_of_the_wrong_type(self, field, value):
        wire = to_wire(make_request())
        wire[field] = value
        with pytest.raises(ProtocolError):
            from_wire(wire)
        with pytest.raises(ProtocolError):
            decode(json.dumps(wire))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ok", "false"), ("ok", 0), ("ok", None), ("id", "7"), ("id", 7.9),
            ("id", False), ("error_kind", 5), ("error_kind", None),
            ("error_message", ["boom"]), ("error_message", None),
        ],
    )
    def test_response_field_of_the_wrong_type(self, field, value):
        wire = dict(self.FAILURE, **{field: value})
        with pytest.raises(ProtocolError):
            from_wire(wire)

    @pytest.mark.parametrize("field", ["id", "ok", "src"])
    def test_missing_field(self, field):
        wire = to_wire(make_request()) if field == "src" else dict(self.FAILURE)
        del wire[field]
        with pytest.raises(ProtocolError):
            from_wire(wire)

    def test_a_failure_may_leave_its_error_fields_out(self):
        wire = {"v": 1, "type": "response", "id": 7, "ok": False}
        assert from_wire(wire) == Response(7, ok=False, error_kind="remote")

    def test_a_string_ok_is_not_read_as_success(self):
        body = json.dumps(dict(self.FAILURE, id="7", ok="false")).encode()
        with pytest.raises(ProtocolError):
            decode(body)
        assert decode(json.dumps(self.FAILURE)) == Response(
            7, ok=False, error_kind="remote", error_message="boom"
        )


class TestValuesTooDeepToEncode:
    """A value nested past the recursion limit, or a circular one, is not
    JSON-representable: ``encode`` raises ``ProtocolError`` for it, as
    ``decode`` does for a frame nested that deep, never ``RecursionError``
    (which a serving thread does not catch)."""

    def test_deep_payload(self):
        with pytest.raises(ProtocolError):
            encode(make_request(payload={"rows": nested(100_000)}))

    def test_deep_result(self):
        with pytest.raises(ProtocolError):
            encode(Response(call_id=1, ok=True, result=nested(100_000)))

    def test_circular_payload(self):
        loop = {"job_id": "j1"}
        loop["self"] = loop
        with pytest.raises(ProtocolError):
            encode(make_request(payload=loop))

    def test_sim_call_with_a_deep_payload_sends_nothing(self):
        runs = []
        transport = SimTransport()
        transport.bind("server", lambda method, payload: runs.append(method))
        transport.register_client("client")
        with pytest.raises(ProtocolError):
            transport.call("client", "server", "echo", nested(100_000))
        assert runs == []
        assert transport.call("client", "server", "echo", 1) is None
        assert runs == ["echo"]


class TestFraming:
    def test_pack_split_round_trip(self):
        req = make_request()
        frame = pack_frame(req)
        length = split_frame(frame[:4])
        assert length == len(frame) - 4
        assert decode(frame[4:]) == req

    def test_oversized_frame_rejected_at_sender(self):
        req = make_request(payload={"blob": "x" * (MAX_FRAME_BYTES + 1)})
        with pytest.raises(FrameTooLarge):
            pack_frame(req)

    def test_oversized_header_rejected_at_receiver(self):
        import struct

        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameTooLarge):
            split_frame(header)

    def test_truncated_header_rejected(self):
        with pytest.raises(ProtocolError):
            split_frame(b"\x00\x01")

    def test_read_frame_returns_envelope_and_body_length(self):
        import socket

        req = make_request()
        frame = pack_frame(req)
        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.sendall(frame + frame[:3])
            assert read_frame(ours, MAX_FRAME_BYTES, 5.0) == (req, len(frame) - 4)
            theirs.close()
            with pytest.raises(ConnectionError):  # EOF inside the next header
                read_frame(ours, MAX_FRAME_BYTES, 5.0)

    def test_frame_sizes_accounts_header(self):
        req = make_request()
        total, body = frame_sizes(req)
        assert total == len(pack_frame(req))
        assert total == body + 4
