"""Transport conformance suite: both backends, one behavioural contract.

Every test runs against :class:`SimTransport` and
:class:`SocketTransport` via the parametrized fixture — the point of
the Transport seam is that components cannot tell the backends apart,
so the contract (error taxonomy, timeout mapping, frame limits, payload
normalisation, shutdown semantics) is pinned once for both.
"""

import threading
import time

import pytest

from repro.net.faults import BackoffPolicy
from repro.net.protocol import FrameTooLarge, ProtocolError
from repro.net.sim import NetworkError, NetworkTimeout
from repro.net.socket_transport import SocketTransport
from repro.net.transport import RemoteCallError, SimTransport
from tests.net.test_protocol import nested

#: small frame limit so oversize tests don't shuffle megabytes
SMALL_FRAME = 64 * 1024


def conformance_handler(method, payload):
    if method == "echo":
        return payload
    if method == "slow":
        time.sleep(0.3)
        return "late"
    if method == "fail":
        raise ValueError("boom")
    if method == "neterr":
        raise NetworkError("synthetic outage")
    if method == "big_reply":
        return "x" * (SMALL_FRAME + 1024)
    raise KeyError(method)


@pytest.fixture(params=["sim", "socket"])
def transport(request):
    if request.param == "sim":
        t = SimTransport(max_frame_bytes=SMALL_FRAME)
    else:
        t = SocketTransport(
            max_frame_bytes=SMALL_FRAME,
            connect_timeout=1.0,
            call_timeout=10.0,
            backoff=BackoffPolicy(base=0.01, factor=2.0, cap=0.05, jitter=0.0),
            reconnect_attempts=2,
        )
    t.bind("server", conformance_handler)
    t.register_client("client")
    yield t
    t.close()


class TestCallContract:
    def test_round_trip(self, transport):
        assert transport.call("client", "server", "echo", {"n": 7}) == {"n": 7}

    def test_payload_normalized_through_codec(self, transport):
        """Tuples arrive as lists on BOTH backends — the codec, not the
        carrier, defines the data model."""
        result = transport.call(
            "client", "server", "echo", {"t": (1, 2), "rows": ({"a": (3,)},)}
        )
        assert result == {"t": [1, 2], "rows": [{"a": [3]}]}

    def test_none_payload(self, transport):
        assert transport.call("client", "server", "echo") is None

    def test_unknown_dst_raises_network_error(self, transport):
        with pytest.raises(NetworkError):
            transport.call("client", "server-404", "echo", 1)

    def test_unknown_src_raises_network_error(self, transport):
        with pytest.raises(NetworkError):
            transport.call("nobody", "server", "echo", 1)


class TestEndpointNames:
    def test_duplicate_bind_leaves_the_original_handler(self, transport):
        with pytest.raises(ValueError):
            transport.bind("server", lambda method, payload: "usurper")
        assert transport.call("client", "server", "echo", "mine") == "mine"

    def test_client_and_server_names_are_exclusive(self, transport):
        with pytest.raises(ValueError):
            transport.bind("client", conformance_handler)
        with pytest.raises(ValueError):
            transport.register_client("server")
        assert transport.call("client", "server", "echo", 1) == 1
        with pytest.raises(NetworkError):
            transport.call("server", "client", "echo", 1)

    def test_duplicate_client_is_refused(self, transport):
        """A name registered as a client is in use: registering it again
        raises on both backends, and the first registration still calls."""
        with pytest.raises(ValueError):
            transport.register_client("client")
        assert transport.call("client", "server", "echo", 1) == 1


class TestErrorTaxonomy:
    def test_remote_exception_maps_to_remote_call_error(self, transport):
        with pytest.raises(RemoteCallError) as err:
            transport.call("client", "server", "fail")
        assert err.value.kind == "ValueError"
        assert "boom" in str(err.value)

    def test_remote_network_error_stays_network_error(self, transport):
        with pytest.raises(NetworkError) as err:
            transport.call("client", "server", "neterr")
        assert not isinstance(err.value, (NetworkTimeout, RemoteCallError))

    def test_timeout_maps_to_network_timeout(self, transport):
        with pytest.raises(NetworkTimeout):
            transport.call("client", "server", "slow", timeout=1e-6)

    def test_usable_after_timeout(self, transport):
        with pytest.raises(NetworkTimeout):
            transport.call("client", "server", "slow", timeout=1e-6)
        assert transport.call("client", "server", "echo", "ok") == "ok"


class TestFrameLimits:
    def test_oversized_request_rejected_before_sending(self, transport):
        with pytest.raises(FrameTooLarge):
            transport.call(
                "client", "server", "echo", {"blob": "x" * (SMALL_FRAME + 1)}
            )

    def test_oversized_reply_surfaces_as_network_error(self, transport):
        """The receiver-side limit arrives as a delivery failure, never
        a truncated result."""
        with pytest.raises(NetworkError):
            transport.call("client", "server", "big_reply")


class TestValuesTooDeepToEncode:
    """A result nested past the recursion limit is answered with an error
    response: the handler runs once (a transparent resend would repeat a
    write), no serving thread dies, and the next call is answered.  A
    payload that deep fails in the caller, before anything is sent."""

    @staticmethod
    def _bind_counting(transport):
        runs = []

        def handler(method, payload):
            runs.append(method)
            return nested(100_000) if method == "deep" else payload

        transport.bind("deep", handler)
        return runs

    def test_deep_result_is_an_error_response(self, transport, quiet):
        runs = self._bind_counting(transport)
        with pytest.raises(NetworkError) as err:
            transport.call("client", "deep", "deep")
        assert not isinstance(err.value, (NetworkTimeout, RemoteCallError))
        assert runs == ["deep"]
        assert transport.call("client", "deep", "echo", 7) == 7
        assert runs == ["deep", "echo"]
        quiet.check()

    def test_deep_payload_is_refused_before_sending(self, transport, quiet):
        runs = self._bind_counting(transport)
        with pytest.raises(ProtocolError):
            transport.call("client", "deep", "echo", nested(100_000))
        assert transport.call("client", "deep", "echo", 7) == 7
        assert runs == ["echo"]
        quiet.check()


class TestOfflinePeers:
    def test_unbound_endpoint_unreachable(self, transport):
        with pytest.raises(NetworkError):
            transport.call("client", "never-bound", "echo", 1)


class TestConcurrency:
    def test_concurrent_calls_return_their_own_results(self, transport):
        """N threads in flight at once; every reply pairs with its call
        (the call_id multiplexing contract)."""
        results = [None] * 12
        errors = []

        def one(i):
            try:
                results[i] = transport.call("client", "server", "echo", {"i": i})
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert results == [{"i": i} for i in range(12)]


class TestShutdown:
    def test_closed_transport_refuses_calls(self, transport):
        transport.close()
        with pytest.raises(NetworkError):
            transport.call("client", "server", "echo", 1)

    def test_closed_transport_refuses_endpoints(self, transport):
        transport.close()
        with pytest.raises(NetworkError):
            transport.bind("late", conformance_handler)
        with pytest.raises(NetworkError):
            transport.register_client("late-client")

    def test_clean_shutdown_mid_call(self, transport):
        """close() while a call is in flight neither hangs nor corrupts:
        the straggler either completes or fails as a NetworkError, and
        the transport refuses new work afterwards."""
        outcome = {}

        def straggler():
            try:
                outcome["result"] = transport.call("client", "server", "slow")
            except NetworkError as exc:
                outcome["error"] = exc

        t = threading.Thread(target=straggler)
        t.start()
        time.sleep(0.05)
        transport.close()
        t.join(timeout=30)
        assert not t.is_alive()
        assert "result" in outcome or "error" in outcome
        with pytest.raises(NetworkError):
            transport.call("client", "server", "echo", 1)


class TestSocketByteCounters:
    def test_counters_read_the_frame_lengths(self):
        """Client and server count what was on the wire — the body
        length of each frame, not a second encoding of its envelope."""
        from repro.net.protocol import Request, Response, encode
        from repro.obs import Telemetry

        telemetry = Telemetry()
        registry = telemetry.registry
        transport = SocketTransport(telemetry=telemetry)
        transport.bind("server", conformance_handler)
        transport.register_client("client")
        payload = {"text": "précis " * 40, "rows": [[1, 2.5, None]] * 9}
        try:
            result = transport.call("client", "server", "echo", payload)
        finally:
            transport.close()
        wire = len(encode(Request(1, "client", "server", "echo", payload))) + len(
            encode(Response(1, ok=True, result=result))
        )
        counted = registry.get("sheriff_transport_bytes_total")
        # one process holds both ends: each frame is sent once, received once
        assert counted.value(transport="socket", direction="out") == wire
        assert counted.value(transport="socket", direction="in") == wire
        frames = registry.get("sheriff_transport_frames_total")
        assert frames.value(transport="socket", direction="out") == 2
        assert frames.value(transport="socket", direction="in") == 2


class TestSocketCloseIsQuiet:
    """``close()`` shuts both ends of every connection down and joins the
    threads that were blocked on them: no thread is interrupted, so none
    dies with a traceback, and nothing reaches stderr or the log."""

    @staticmethod
    def _transport():
        t = SocketTransport(max_frame_bytes=SMALL_FRAME, connect_timeout=1.0)
        t.bind("server", conformance_handler)
        t.bind("other", conformance_handler)
        t.register_client("client")
        return t

    def test_close_with_live_connections_logs_nothing(self, quiet):
        transport = self._transport()
        assert transport.call("client", "server", "echo", 1) == 1
        assert transport.call("client", "other", "echo", 2) == 2
        started = time.perf_counter()
        transport.close()
        # idle connections end at EOF, well inside the grace period
        assert time.perf_counter() - started < 0.5
        quiet.check()

    def test_close_mid_call_logs_nothing(self, quiet):
        transport = self._transport()
        outcome = {}

        def straggler():
            started = time.perf_counter()
            try:
                outcome["result"] = transport.call("client", "server", "slow")
            except NetworkError as exc:
                outcome["error"] = exc
            outcome["seconds"] = time.perf_counter() - started

        t = threading.Thread(target=straggler)
        t.start()
        time.sleep(0.05)
        transport.close()
        t.join(timeout=30)
        assert not t.is_alive()
        assert "error" in outcome  # its connection was closed under it
        assert outcome["seconds"] < 1.0  # promptly, not at its 30 s deadline
        quiet.check()

    def test_close_joins_every_thread(self, quiet):
        before = threading.active_count()
        transport = self._transport()
        for i in range(3):
            transport.register_client(f"client-{i}")
            assert transport.call(f"client-{i}", "server", "echo", i) == i
        assert transport.call("client", "other", "echo", 2) == 2
        # two acceptors, four serving threads
        assert threading.active_count() == before + 6
        transport.close()
        assert threading.active_count() == before
        quiet.check()
