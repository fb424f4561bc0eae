"""The Transport interface: one messaging API, two backends.

Historically every component message went straight through
:class:`~repro.net.sim.SimNetwork.request` (or an ad-hoc
``host.handle``).  :class:`Transport` extracts that implicit surface
into one explicit API —

    ``transport.call(src, dst, method, payload)``

— with typed :class:`~repro.net.protocol.Request`/``Response``
envelopes, so the same component code can run over

* :class:`SimTransport` — the deterministic, fault-injectable path on
  the discrete-event clock.  Tier-1 tests run here; behaviour is
  byte-for-byte what direct ``SimNetwork.request`` gave, plus the
  shared JSON codec on every payload.
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
from typing import Any, Callable, Dict, List, Optional

from repro.net.faults import FaultPlan
from repro.net.geo import Location
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    FrameTooLarge,
    ProtocolError,
    Request,
    Response,
    decode,
    encode,
    frame_sizes,
)
from repro.net.sim import Host, LatencyModel, NetworkError, NetworkTimeout, SimNetwork

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

    def bind(self, name: str, handler: Handler, location: Optional[Location] = None) -> None:
        """Expose ``handler`` as the endpoint ``name``."""
        raise NotImplementedError

    def register_client(self, name: str, location: Optional[Location] = None) -> None:
        """Declare a caller-only endpoint (no inbound handler)."""
        raise NotImplementedError

    def unbind(self, name: str) -> None:
        """Remove an endpoint entirely (decommission, not crash)."""
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

    def endpoints(self) -> List[str]:
        """Names currently bound (servers and registered clients)."""
        raise NotImplementedError

    def take_offline(self, name: str) -> None:
        """Simulate/effect an endpoint crash: calls to it start failing."""
        raise NotImplementedError

    def restart_endpoint(self, name: str) -> None:
        """Bring a bound endpoint back after :meth:`take_offline`."""
        raise NotImplementedError

    def close(self) -> None:
        """Release all endpoints; subsequent calls raise NetworkError."""
        raise NotImplementedError

    def bind_telemetry(self, telemetry) -> None:
        """Attach the deployment's telemetry plane (unified convention)."""
        self._telemetry = _TransportTelemetry(telemetry.registry, self.label)


class SimTransport(Transport):
    """Deterministic transport over :class:`SimNetwork`.

    Each bound endpoint becomes a :class:`Host` whose handler speaks
    the wire codec: requests are encoded to JSON text, carried by
    ``SimNetwork.request`` (where latency, drops, timeouts, delays and
    corruption apply exactly as before), and decoded back.  A corrupt
    fault therefore mangles real JSON and surfaces as a protocol error,
    just as it would on a socket.

    Determinism: the latency model uses its own seeded RNG stream (named
    by ``rng_seed``) so installing a transport alongside existing
    components never perturbs their draws.
    """

    label = "sim"

    def __init__(
        self,
        clock=None,
        network: Optional[SimNetwork] = None,
        latency: Optional[LatencyModel] = None,
        faults: Optional[FaultPlan] = None,
        default_location: Optional[Location] = None,
        rng_seed: str = "transport",
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        if network is not None:
            self.network = network
        else:
            self.network = SimNetwork(
                latency=latency
                if latency is not None
                else LatencyModel(rng=random.Random(f"{rng_seed}:latency")),
                faults=faults,
                clock=clock,
            )
        self.clock = clock if clock is not None else self.network.clock
        self.max_frame_bytes = max_frame_bytes
        self._default_location = (
            default_location
            if default_location is not None
            else Location(country="US", region="CA", city="Mountain View", ip="10.0.0.1")
        )
        self._handlers: Dict[str, Handler] = {}
        self._call_ids = iter(range(1, 1 << 62))
        self._closed = False
        self._telemetry: Optional[_TransportTelemetry] = None

    # -- endpoint management ----------------------------------------------
    def _wire_handler(self, name: str) -> Callable[[Any], Any]:
        def handle(wire: Any) -> Any:
            req = decode(wire)
            if not isinstance(req, Request):
                raise ProtocolError(f"endpoint {name!r} received a non-request frame")
            resp = serve_request(self._handlers[name], req)
            body = encode(resp)
            if len(body) > self.max_frame_bytes:
                resp = Response(
                    req.call_id,
                    ok=False,
                    error_kind="network",
                    error_message=(
                        f"response of {len(body)} bytes exceeds frame limit "
                        f"{self.max_frame_bytes}"
                    ),
                )
                body = encode(resp)
            return body.decode("utf-8")

        return handle

    def bind(self, name: str, handler: Handler, location: Optional[Location] = None) -> None:
        self._handlers[name] = handler
        self.network.add_host(
            Host(
                name=name,
                location=location if location is not None else self._default_location,
                handler=self._wire_handler(name),
            )
        )

    def register_client(self, name: str, location: Optional[Location] = None) -> None:
        self.network.add_host(
            Host(
                name=name,
                location=location if location is not None else self._default_location,
            )
        )

    def endpoints(self) -> List[str]:
        return [h.name for h in self.network.hosts()]

    def unbind(self, name: str) -> None:
        self._handlers.pop(name, None)
        self.network.remove_host(name)

    def take_offline(self, name: str) -> None:
        self.network.host(name).online = False

    def restart_endpoint(self, name: str) -> None:
        """Restart the endpoint's host and re-install its wire handler.

        ``SimNetwork.restart_host`` replaces the host object with a
        fresh one; re-installing the handler here keeps the transport
        authoritative even if the old host's handler was detached.
        """
        host = self.network.restart_host(name)
        if name in self._handlers:
            host.handler = self._wire_handler(name)

    def close(self) -> None:
        self._closed = True
        for host in self.network.hosts():
            host.online = False

    # -- calls ------------------------------------------------------------
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
            if self._telemetry:
                self._telemetry.failed("frame_too_large")
            raise FrameTooLarge(
                f"frame of {len(wire)} bytes exceeds limit {self.max_frame_bytes}"
            )
        if self._telemetry:
            self._telemetry.sent(len(wire))
        try:
            raw, rtt = self.network.request(src, dst, wire.decode("utf-8"))
        except NetworkTimeout:
            if self._telemetry:
                self._telemetry.failed("timeout")
            raise
        except NetworkError:
            if self._telemetry:
                self._telemetry.failed("network")
            raise
        if timeout is not None and rtt > timeout:
            if self._telemetry:
                self._telemetry.failed("timeout")
            raise NetworkTimeout(
                f"call {src!r} → {dst!r} {method!r} took {rtt:.3f}s > timeout {timeout:g}s"
            )
        try:
            resp = decode(raw)
        except ProtocolError as exc:
            if self._telemetry:
                self._telemetry.failed("protocol")
            raise NetworkError(f"corrupt frame from {dst!r}: {exc}") from exc
        if not isinstance(resp, Response):
            if self._telemetry:
                self._telemetry.failed("protocol")
            raise NetworkError(f"endpoint {dst!r} answered with a non-response frame")
        if self._telemetry:
            _, body = frame_sizes(resp)
            self._telemetry.received(body)
            self._telemetry.observed_call(method, rtt)
        if not resp.ok:
            if self._telemetry:
                self._telemetry.failed(resp.error_kind or "remote")
            _raise_error_response(resp)
        return resp.result
