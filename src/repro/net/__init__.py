"""Network substrate: discrete-event clock, synthetic geography, transports.

The real Price $heriff runs over the public internet (WebRTC data
channels between peers, HTTPS between components).  This package
provides both halves of the reproduction's messaging story: a
:class:`~repro.net.events.EventLoop` discrete event clock, a
:class:`~repro.net.geo.GeoDatabase` that geolocates synthetic IP
addresses, a peerjs-style overlay in :mod:`repro.net.p2p`, and — since
the transport redesign — one :class:`~repro.net.transport.Transport`
interface with two backends: the deterministic
:class:`~repro.net.transport.SimTransport` (Tier-1 default) and the
real-socket :class:`~repro.net.socket_transport.SocketTransport`
(blocking TCP sockets, one serving thread per connection, bounded
against peers that stall or send garbage).

:class:`Transport` is the only way components send each other a
message; the sim backend holds its endpoints itself and draws each
call's round trip from :class:`~repro.net.sim.LatencyModel`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".events": ["Clock", "EventLoop"],
    ".geo": ["Country", "GeoDatabase", "Location"],
    ".protocol": [
        "MAX_FRAME_BYTES", "PROTOCOL_VERSION", "FrameTooLarge", "ProtocolError",
        "Request", "Response", "from_wire", "to_wire",
    ],
    ".sim": ["LatencyModel", "NetworkError", "NetworkTimeout"],
    ".socket_transport": ["SocketTransport"],
    ".transport": ["RemoteCallError", "SimTransport", "Transport"],
    ".p2p": ["PeerChannel", "PeerOverlay"],
})
