"""The Transport interface: one messaging API, two backends.

Every component message goes through

    ``transport.call(src, dst, method, payload)``

with typed :class:`~repro.net.protocol.Request`/``Response``
envelopes, so the same component code can run over

* :class:`SimTransport` — the deterministic in-process path: the
  handler runs on the caller's thread and each call draws its
  simulated round trip from a private latency stream.  Tier-1 tests
  run here; every payload still crosses the shared JSON codec.
* :class:`~repro.net.socket_transport.SocketTransport` — real TCP on
  blocking sockets (the caller's thread does the I/O, one serving thread
  per connection) speaking the same length-prefixed JSON frames, for
  multi-process mesh deployments.

Both implementations emit identically-labelled ``sheriff_transport_*``
metrics (frames, bytes, call-latency histogram, reconnects) so a
Grafana panel reads the same over either backend; only the
``transport`` label value differs (``sim`` vs ``socket``).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Optional

from repro.net.geo import Location
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    FrameTooLarge,
    ProtocolError,
    Request,
    Response,
    decode,
    encode,
)
from repro.net.sim import LatencyModel, NetworkError, NetworkTimeout
from repro.obs import NULL_TELEMETRY

__all__ = [
    "Handler",
    "RemoteCallError",
    "SimTransport",
    "Transport",
    "TRANSPORT_CALL_BUCKETS",
]

#: a server-side handler: ``handler(method, payload) -> result``.
Handler = Callable[[str, Any], Any]

#: latency buckets for the call histogram — sub-millisecond loopback
#: frames up to multi-second proxied fetches.
TRANSPORT_CALL_BUCKETS = (
    0.0005,
    0.002,
    0.01,
    0.05,
    0.2,
    1.0,
    5.0,
    30.0,
)

#: the one site every sim endpoint sits at: a call's simulated round
#: trip is twice one same-city latency draw
_SITE = Location(country="US", region="CA", city="Mountain View", ip="10.0.0.1")


class RemoteCallError(NetworkError):
    """The peer was reachable but its handler raised.

    Distinct from a delivery failure: the network worked, the remote
    code did not.  ``kind`` preserves the remote exception's class name
    so callers can branch without parsing the message.
    """

    def __init__(self, message: str, kind: str = "Exception") -> None:
        super().__init__(message)
        self.kind = kind


class _TransportTelemetry:
    """The ``sheriff_transport_*`` series, shared by both backends.

    One instance per transport; the ``transport`` label carries the
    backend name so sim and socket runs chart on the same panel.
    """

    def __init__(self, registry, label: str) -> None:
        self.label = label
        self.frames = registry.counter(
            "sheriff_transport_frames_total",
            "Envelope frames moved through the transport",
            labelnames=("transport", "direction"),
        )
        self.bytes = registry.counter(
            "sheriff_transport_bytes_total",
            "Encoded envelope bytes moved through the transport",
            labelnames=("transport", "direction"),
        )
        self.calls = registry.histogram(
            "sheriff_transport_call_seconds",
            "Round-trip latency of transport.call",
            buckets=TRANSPORT_CALL_BUCKETS,
            labelnames=("transport", "method"),
        )
        self.errors = registry.counter(
            "sheriff_transport_errors_total",
            "transport.call failures by error kind",
            labelnames=("transport", "kind"),
        )
        self.reconnects = registry.counter(
            "sheriff_transport_reconnects_total",
            "Connections re-established after a peer went away",
            labelnames=("transport",),
        )

    def sent(self, nbytes: int) -> None:
        self.frames.inc(transport=self.label, direction="out")
        self.bytes.inc(nbytes, transport=self.label, direction="out")

    def received(self, nbytes: int) -> None:
        self.frames.inc(transport=self.label, direction="in")
        self.bytes.inc(nbytes, transport=self.label, direction="in")

    def observed_call(self, method: str, seconds: float) -> None:
        self.calls.observe(seconds, transport=self.label, method=method)

    def failed(self, kind: str) -> None:
        self.errors.inc(transport=self.label, kind=kind)

    def reconnected(self) -> None:
        self.reconnects.inc(transport=self.label)


class _NullTransportTelemetry:
    """The telemetry-off twin: empty methods, so a frame pays one call
    and no labelled instrument lookups."""

    def sent(self, nbytes: int) -> None:
        pass

    def received(self, nbytes: int) -> None:
        pass

    def observed_call(self, method: str, seconds: float) -> None:
        pass

    def failed(self, kind: str) -> None:
        pass

    def reconnected(self) -> None:
        pass


_NULL_TRANSPORT_TELEMETRY = _NullTransportTelemetry()


def _transport_telemetry(telemetry, label: str):
    """The ``sheriff_transport_*`` series of one transport, or the null
    twin when ``telemetry`` is off."""
    if not telemetry.registry.enabled:
        return _NULL_TRANSPORT_TELEMETRY
    return _TransportTelemetry(telemetry.registry, label)


def _raise_error_response(resp: Response) -> None:
    """Map an error envelope back onto the typed exception hierarchy."""
    if resp.error_kind == "timeout":
        raise NetworkTimeout(resp.error_message or "remote timeout")
    if resp.error_kind == "network":
        raise NetworkError(resp.error_message or "remote network error")
    kind, _, message = (resp.error_message or "").partition(": ")
    raise RemoteCallError(
        resp.error_message or "remote handler failed",
        kind=kind if message else "Exception",
    )


def serve_request(handler: Handler, req: Request) -> Response:
    """Run a bound handler against one request; never raises.

    Shared by both transports so a handler exception produces the same
    error envelope whether it happened in-process or across a socket.
    """
    try:
        result = handler(req.method, req.payload)
    except NetworkTimeout as exc:
        return Response(req.call_id, ok=False, error_kind="timeout", error_message=str(exc))
    except NetworkError as exc:
        return Response(req.call_id, ok=False, error_kind="network", error_message=str(exc))
    except Exception as exc:  # noqa: BLE001 - error envelopes carry any failure
        return Response(
            req.call_id,
            ok=False,
            error_kind="remote",
            error_message=f"{type(exc).__name__}: {exc}",
        )
    return Response(req.call_id, ok=True, result=result)


class Transport:
    """Abstract messaging surface between $heriff components.

    Lifecycle: ``bind`` server endpoints (or ``register_client`` pure
    callers), ``call`` between them, ``close`` when done.  Endpoint
    names are the addressing scheme — the same names the dispatcher and
    fault plans already use (``coordinator``, ``m0``, ``db``…).
    """

    #: backend name; also the ``transport`` metric/span label value.
    label = "transport"

    def bind(self, name: str, handler: Handler) -> None:
        """Expose ``handler`` as the endpoint ``name``.

        A name already in use raises ``ValueError`` and leaves the
        existing endpoint as it was; a closed transport raises
        :class:`NetworkError`.
        """
        raise NotImplementedError

    def register_client(self, name: str) -> None:
        """Declare a caller-only endpoint (no inbound handler); refused
        like :meth:`bind` when ``name`` is in use (bound or already a
        client) or the transport closed."""
        raise NotImplementedError

    def call(
        self,
        src: str,
        dst: str,
        method: str,
        payload: Any = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """Invoke ``method`` on ``dst`` and return its result.

        Raises :class:`NetworkError` for delivery failures,
        :class:`NetworkTimeout` when the deadline passes, and
        :class:`RemoteCallError` when the remote handler raised.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release all endpoints; subsequent calls raise NetworkError."""
        raise NotImplementedError


class SimTransport(Transport):
    """Deterministic in-process transport.

    Endpoints are a name → handler table (``None`` for a caller-only
    endpoint).  A call encodes its
    request, runs the destination's handler on the caller's thread
    against the decoded copy, and decodes the encoded reply, so payloads
    are normalised by the codec exactly as on a socket.

    Each delivered call takes one draw from a private latency stream —
    after the unknown-endpoint checks, before the handler
    runs — as its simulated round trip; ``timeout=`` is checked against
    it.  The stream has its own fixed seed, so a transport never
    perturbs any other component's draws.
    """

    label = "sim"

    def __init__(
        self, max_frame_bytes: int = MAX_FRAME_BYTES, telemetry=NULL_TELEMETRY
    ) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._handlers: Dict[str, Optional[Handler]] = {}
        self._latency = LatencyModel(rng=random.Random("transport:latency"))
        self._call_ids = iter(range(1, 1 << 62))
        self._closed = False
        self._telemetry = _transport_telemetry(telemetry, self.label)

    # -- endpoint management ----------------------------------------------
    def _add(self, name: str, handler: Optional[Handler]) -> None:
        if self._closed:
            raise NetworkError("transport is closed")
        if name in self._handlers:
            raise ValueError(f"duplicate endpoint name {name!r}")
        self._handlers[name] = handler

    def bind(self, name: str, handler: Handler) -> None:
        self._add(name, handler)

    def register_client(self, name: str) -> None:
        self._add(name, None)

    def _known(self, name: str) -> None:
        if name not in self._handlers:
            raise NetworkError(f"unknown host {name!r}")

    def close(self) -> None:
        self._closed = True

    # -- calls ------------------------------------------------------------
    def _reply(self, dst: str, wire: bytes) -> bytes:
        """Deliver one encoded request to ``dst``; the encoded reply."""
        handler = self._handlers[dst]
        if handler is None:
            raise NetworkError(f"host {dst} has no handler")
        req = decode(wire)
        resp = serve_request(handler, req)
        try:
            body = encode(resp)
            if len(body) > self.max_frame_bytes:
                raise FrameTooLarge(
                    f"response of {len(body)} bytes exceeds frame limit "
                    f"{self.max_frame_bytes}"
                )
        except ProtocolError as exc:  # too large, not JSON, or nested too deep
            body = encode(Response(
                req.call_id, ok=False, error_kind="network", error_message=str(exc),
            ))
        return body

    def call(
        self,
        src: str,
        dst: str,
        method: str,
        payload: Any = None,
        timeout: Optional[float] = None,
    ) -> Any:
        if self._closed:
            raise NetworkError("transport is closed")
        req = Request(
            call_id=next(self._call_ids), src=src, dst=dst, method=method, payload=payload
        )
        wire = encode(req)
        if len(wire) > self.max_frame_bytes:
            self._telemetry.failed("frame_too_large")
            raise FrameTooLarge(
                f"frame of {len(wire)} bytes exceeds limit {self.max_frame_bytes}"
            )
        self._telemetry.sent(len(wire))
        try:
            self._known(dst)
            self._known(src)
            rtt = 2.0 * self._latency.latency(_SITE, _SITE)
            raw = self._reply(dst, wire)
        except NetworkError:
            self._telemetry.failed("network")
            raise
        if timeout is not None and rtt > timeout:
            self._telemetry.failed("timeout")
            raise NetworkTimeout(
                f"call {src!r} → {dst!r} {method!r} took {rtt:.3f}s > timeout {timeout:g}s"
            )
        try:
            resp = decode(raw)
        except ProtocolError as exc:
            self._telemetry.failed("protocol")
            raise NetworkError(f"corrupt frame from {dst!r}: {exc}") from exc
        self._telemetry.received(len(raw))
        self._telemetry.observed_call(method, rtt)
        if not resp.ok:
            self._telemetry.failed(resp.error_kind or "remote")
            _raise_error_response(resp)
        return resp.result
