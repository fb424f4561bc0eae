"""Hostile peers against a bound :class:`SocketTransport` endpoint.

Raw ``socket`` clients that speak the framing badly on purpose.  The
contract every case checks (the ``endpoint`` fixture asserts the second
half on the way out):

* the misbehaving connection is dropped — at once when the bytes already
  condemn it, within the frame deadline (``call_timeout``) when it just
  stops talking, after the same period of silence when it never says
  anything;
* an honest client on its own connection is served before, during and
  after;
* no thread dies with a traceback, nothing reaches stderr or the log,
  and after ``close()`` ``threading.active_count()`` is back where it
  started.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.net.protocol import PROTOCOL_VERSION, Request, Response, pack_frame, read_frame
from repro.net.sim import NetworkError
from repro.net.socket_transport import MAX_CONNECTIONS, SocketTransport
from repro.obs import Telemetry

#: the frame deadline under test
DEADLINE = 0.3
#: scheduling slack on top of it
SLACK = 0.5
MAX_FRAME = 1024 * 1024


def echo(method, payload):
    return payload


@pytest.fixture
def telemetry():
    return Telemetry()


@pytest.fixture
def endpoint(quiet, telemetry):
    before = threading.active_count()
    transport = SocketTransport(
        call_timeout=DEADLINE, connect_timeout=1.0, max_frame_bytes=MAX_FRAME,
        telemetry=telemetry,
    )
    transport.bind("server", echo)
    transport.register_client("honest")
    assert transport.call("honest", "server", "echo", "before") == "before"
    yield transport
    assert transport.call("honest", "server", "echo", "after") == "after"
    transport.close()
    assert threading.active_count() == before
    quiet.check()


def dial(transport) -> socket.socket:
    return socket.create_connection(transport.address_of("server"), timeout=5.0)


def seconds_until_dropped(sock: socket.socket, patience: float) -> float:
    """How long the server took to hang up; fails if it sent anything or
    is still there after ``patience`` seconds."""
    started = time.perf_counter()
    sock.settimeout(patience)
    try:
        assert sock.recv(1) == b"", "the server answered a hostile frame"
    except ConnectionResetError:
        pass
    except socket.timeout:
        pytest.fail(f"connection still open after {patience:g}s")
    return time.perf_counter() - started


def frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


def envelope(**fields) -> bytes:
    wire = {"v": PROTOCOL_VERSION, "type": "request", "id": 1, "src": "x",
            "dst": "server", "method": "echo", "payload": None}
    wire.update(fields)
    return json.dumps(wire).encode()


class TestStalledFrames:
    """A frame has ``call_timeout`` from its first byte to be complete."""

    def test_two_header_bytes_then_silence(self, endpoint):
        with dial(endpoint) as sock:
            sock.sendall(b"\x00\x00")
            assert endpoint.call("honest", "server", "echo", 1) == 1
            assert seconds_until_dropped(sock, DEADLINE + SLACK) >= DEADLINE / 2

    def test_body_one_byte_short(self, endpoint):
        whole = pack_frame(Request(1, "x", "server", "echo", {"n": 1}))
        with dial(endpoint) as sock:
            sock.sendall(whole[:-1])
            assert endpoint.call("honest", "server", "echo", 2) == 2
            assert seconds_until_dropped(sock, DEADLINE + SLACK) >= DEADLINE / 2

    def test_trickled_frame_does_not_renew_its_deadline(self, endpoint):
        whole = pack_frame(Request(1, "x", "server", "echo", "x" * 64))
        with dial(endpoint) as sock:
            started = time.perf_counter()
            try:
                for i in range(len(whole) - 1):
                    sock.sendall(whole[i:i + 1])
                    time.sleep(DEADLINE / 10)
                    if time.perf_counter() - started > DEADLINE + SLACK:
                        break
            except OSError:
                pass  # already hung up on
            seconds_until_dropped(sock, SLACK)

    def test_connect_and_never_send_is_an_idle_connection(self, endpoint):
        """Indistinguishable from an honest pooled connection between
        calls, so it gets what that gets: ``call_timeout`` of silence,
        then the server hangs up without a word."""
        with dial(endpoint) as sock:
            assert seconds_until_dropped(sock, DEADLINE + SLACK) >= DEADLINE / 2
            assert endpoint.call("honest", "server", "echo", 3) == 3


class TestCondemnedFrames:
    """Bytes that can never become a request end the connection at once,
    without a reply."""

    def test_header_above_the_frame_limit(self, endpoint):
        with dial(endpoint) as sock:
            sock.sendall(struct.pack(">I", MAX_FRAME + 1))
            assert seconds_until_dropped(sock, SLACK) < DEADLINE

    @pytest.mark.parametrize(
        "body",
        [
            envelope(v=PROTOCOL_VERSION + 1),
            envelope(v=True),
            pack_frame(Response(1, ok=True, result="unsolicited"))[4:],
            b"\xff\xfenot json",
            b"[" * 200_000,
            envelope().replace(b'"id": 1', b'"id": 1e999'),
            envelope().replace(b'"id": 1', b'"id": ' + b"9" * 5000),
            envelope(method=None, src=None).replace(b'"id": 1', b'"id": null'),
            envelope(id="1"),
            envelope(id=1.9),
            envelope(id=True),
            envelope(src=[1]),
            envelope(method=5),
        ],
        ids=["wrong-version", "bool-version", "response", "not-json", "deep-nesting",
             "infinite-id", "huge-id", "null-id", "string-id", "float-id", "bool-id",
             "list-src", "int-method"],
    )
    def test_malformed_frame(self, endpoint, body):
        with dial(endpoint) as sock:
            sock.sendall(frame(body))
            assert seconds_until_dropped(sock, SLACK) < DEADLINE
            assert endpoint.call("honest", "server", "echo", 4) == 4

    def test_good_frame_then_garbage(self, endpoint):
        """The reply to the honest frame arrives; the garbage after it
        costs the connection, not the endpoint."""
        good = pack_frame(Request(7, "x", "server", "echo", "hi"))
        with dial(endpoint) as sock:
            sock.sendall(good + frame(b"{}"))
            sock.settimeout(5.0)
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
            assert json.loads(reply[4:])["result"] == "hi"


class TestConnectionCap:
    def test_connections_above_the_cap_are_closed(self, endpoint):
        held = [dial(endpoint) for _ in range(MAX_CONNECTIONS - 1)]  # + the honest one
        try:
            with dial(endpoint) as extra:
                assert seconds_until_dropped(extra, SLACK) < DEADLINE
            assert endpoint.call("honest", "server", "echo", 5) == 5
            # a slot that frees up is served again
            held.pop().close()
            deadline = time.perf_counter() + 5.0
            while True:
                with dial(endpoint) as sock:
                    sock.sendall(pack_frame(Request(9, "x", "server", "echo", "in")))
                    sock.settimeout(5.0)
                    try:
                        if sock.recv(4096):
                            break
                    except ConnectionResetError:
                        pass
                assert time.perf_counter() < deadline, "freed slot never served"
                time.sleep(0.02)
        finally:
            for sock in held:
                sock.close()


class TestIdleConnections:
    """Silence is bounded by ``call_timeout`` too: it frees the thread of
    a peer that never speaks, and costs an honest pooled client one
    reconnect on its next call."""

    def test_silent_peers_at_the_cap_do_not_lock_the_endpoint_out(self, endpoint):
        silent = [dial(endpoint) for _ in range(MAX_CONNECTIONS - 1)]  # + the honest one
        try:
            for sock in silent:
                seconds_until_dropped(sock, DEADLINE + SLACK)
            endpoint.register_client("late")
            assert endpoint.call("late", "server", "echo", 65) == 65
        finally:
            for sock in silent:
                sock.close()

    def test_pooled_client_that_idled_past_it_reconnects_once(self, endpoint, telemetry):
        registry = telemetry.registry
        assert endpoint.call("honest", "server", "echo", 6) == 6
        time.sleep(DEADLINE + SLACK / 2)  # the server hangs up meanwhile
        assert endpoint.call("honest", "server", "echo", 7) == 7
        assert endpoint.call("honest", "server", "echo", 8) == 8
        reconnects = registry.get("sheriff_transport_reconnects_total")
        assert reconnects.value(transport="socket") == 1
        assert registry.get("sheriff_transport_errors_total").total == 0


class TestHostileServer:
    """The same bytes coming the other way: ``call()`` answers every
    reply it cannot use with ``NetworkError``, never a bare exception."""

    @pytest.mark.parametrize(
        "reply",
        [
            frame(b'{"v":1,"type":"response","id":1e999,"ok":true}'),
            frame(b'{"v":1,"type":"response","id":' + b"9" * 5000 + b',"ok":true}'),
            frame(b"[" * 200_000),
            frame(b"not json"),
            struct.pack(">I", MAX_FRAME + 1),
            pack_frame(Request(1, "evil", "honest", "echo", None)),
            pack_frame(Response(10**9, ok=True, result="someone else's")),
        ],
        ids=["infinite-id", "huge-id", "deep-nesting", "not-json", "oversized",
             "request", "wrong-call-id"],
    )
    def test_unusable_reply_is_a_network_error(self, endpoint, reply):
        self.call_evil_server(endpoint, lambda request: reply)

    @pytest.mark.parametrize(
        "template",
        [
            '{{"v":1,"type":"response","id":"{id}","ok":"false",'
            '"error_kind":"remote","error_message":"boom"}}',
            '{{"v":1,"type":"response","id":{id}.9,"ok":true,"result":1}}',
            '{{"v":1,"type":"response","id":{id},"ok":1,"result":1}}',
            '{{"v":1,"type":"response","id":{id},"ok":false,"error_kind":["remote"]}}',
        ],
        ids=["string-ok-and-id", "float-id", "int-ok", "list-error-kind"],
    )
    def test_reply_that_only_coerces_to_the_call_is_a_network_error(
        self, endpoint, template
    ):
        """The caller's own id, in a type a lenient decoder would coerce:
        ``"ok": "false"`` would read a failure as a success."""
        def reply_for(request):
            return frame(template.format(id=request.call_id).encode())

        self.call_evil_server(endpoint, reply_for)

    @staticmethod
    def call_evil_server(endpoint, reply_for):
        """``endpoint`` calls a server that answers its request with
        ``reply_for(request)``; the call must raise ``NetworkError``."""
        listener = socket.create_server(("127.0.0.1", 0))

        def answer_once():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5.0)
                request, _ = read_frame(conn, MAX_FRAME, 5.0)
                conn.sendall(reply_for(request))

        evil = threading.Thread(target=answer_once)
        evil.start()
        try:
            endpoint.connect_peer("evil", *listener.getsockname())
            with pytest.raises(NetworkError):
                endpoint.call("honest", "evil", "echo", 1, timeout=5.0)
        finally:
            evil.join(timeout=10)
            listener.close()
