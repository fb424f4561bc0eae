"""Real-socket transport: blocking sockets, length-prefixed JSON frames.

The second :class:`~repro.net.transport.Transport` backend.  Each bound
endpoint is a TCP listener on the loopback (or a configured interface)
with one acceptor thread and one serving thread per connection; calls
travel as the same :class:`~repro.net.protocol.Request`/``Response``
envelopes the sim transport uses, framed with a 4-byte big-endian length
prefix.  ``transport.call`` blocks the calling thread as a sim call
does: it writes the request on the pooled ``(src, dst)`` socket and
reads the reply there itself, while the serving thread that read the
request runs the handler inline and writes the reply — a round trip is
two thread hand-offs.

Failure mapping (the contract the conformance suite pins):

* connect refused / reset / peer gone / undecodable or desynchronised
  reply → :class:`NetworkError`
* connect or read deadline passed → :class:`NetworkTimeout`
* remote handler raised → :class:`RemoteCallError`
* frame above the size limit → :class:`FrameTooLarge` (sender-side,
  before any bytes move — identical to the sim path)

Server-side bounds (a connection costs a thread, and peers are not
trusted): a frame must be complete within ``call_timeout`` of its first
byte and a reply taken within ``call_timeout``; a connection that sends
nothing for ``call_timeout`` is hung up on (a peer that connects and
never speaks looks like an idle pooled connection, so both go: the
honest client's next call finds the socket stale, reconnects once and
is answered); an endpoint serves at most :data:`MAX_CONNECTIONS`
connections and closes what arrives above that; a frame that is not a
well-formed ``Request`` ends its connection without a reply.

Reconnects reuse :class:`~repro.net.faults.BackoffPolicy`, the same
capped-exponential-with-jitter schedule the dispatch retry path uses.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.net.faults import BackoffPolicy
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    FrameTooLarge,
    ProtocolError,
    Request,
    Response,
    pack_frame,
    read_frame,
)
from repro.net.sim import NetworkError, NetworkTimeout
from repro.net.transport import (
    Handler,
    Transport,
    _raise_error_response,
    _transport_telemetry,
    serve_request,
)
from repro.obs import NULL_TELEMETRY

__all__ = ["SocketTransport"]

#: how long ``close()`` (or ``unbind``/``drain``) waits for a thread still
#: inside a handler, or a call still on its pooled connection, before
#: leaving it to finish as a daemon
CLOSE_GRACE_SECONDS = 1.0

#: connections one endpoint serves at a time — each costs a thread, so
#: the acceptor closes whatever arrives above this
MAX_CONNECTIONS = 64


@dataclass
class _Endpoint:
    """One bound server: listener, serving threads, in-flight accounting."""

    name: str
    handler: Handler
    port: int = 0
    listener: Optional[socket.socket] = None
    acceptor: Optional[threading.Thread] = None
    conns: Dict[socket.socket, threading.Thread] = field(default_factory=dict)
    active: int = 0
    draining: bool = False
    #: guards every field above; notified when ``active`` falls to 0
    cond: threading.Condition = field(default_factory=threading.Condition)


@dataclass
class _Conn:
    """The pooled client connection of one ``(src, dst)`` pair; ``lock``
    is held for a whole round trip and by whoever replaces ``sock``."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    sock: Optional[socket.socket] = None

    def drop(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            sock.close()


def _shutdown(sock: socket.socket) -> None:
    """Wake whichever thread is blocked on ``sock``; that thread closes it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already closed or never connected


def _hang_up(conns: List[_Conn]) -> None:
    """Close pooled connections: shut each socket down first, so a call
    still blocked on one fails as a :class:`NetworkError` and lets go of
    its lock, then drop it under that lock."""
    for conn in conns:
        sock = conn.sock
        if sock is not None:
            _shutdown(sock)
    for conn in conns:
        if conn.lock.acquire(timeout=CLOSE_GRACE_SECONDS):
            conn.drop()
            conn.lock.release()


class SocketTransport(Transport):
    """Transport over real TCP sockets, one thread per served connection."""

    label = "socket"

    def __init__(
        self,
        host: str = "127.0.0.1",
        connect_timeout: float = 5.0,
        call_timeout: float = 30.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        backoff: Optional[BackoffPolicy] = None,
        reconnect_attempts: int = 3,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.host = host
        self.connect_timeout = connect_timeout
        self.call_timeout = call_timeout
        self.max_frame_bytes = max_frame_bytes
        self.backoff = backoff if backoff is not None else BackoffPolicy(
            base=0.05, factor=2.0, cap=1.0, jitter=0.2
        )
        self.reconnect_attempts = reconnect_attempts
        self._rng = random.Random("socket-transport")
        self._endpoints: Dict[str, _Endpoint] = {}
        self._peers: Dict[str, Tuple[str, int]] = {}
        self._clients: Set[str] = set()
        self._conns: Dict[Tuple[str, str], _Conn] = {}
        self._lock = threading.Lock()  # guards _conns and _closed
        self._call_ids = itertools.count(1)
        self._closed = False
        self._telemetry = _transport_telemetry(telemetry, self.label)

    # -- endpoint management ----------------------------------------------
    def _endpoint(self, name: str) -> _Endpoint:
        if self._closed:
            raise NetworkError("transport is closed")
        try:
            return self._endpoints[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    def bind(self, name: str, handler: Handler) -> None:
        if self._closed:
            raise NetworkError("transport is closed")
        if name in self._endpoints or name in self._clients:
            raise ValueError(f"duplicate endpoint name {name!r}")
        ep = _Endpoint(name=name, handler=handler)
        self._listen(ep)
        self._endpoints[name] = ep
        self._peers[name] = (self.host, ep.port)

    def _listen(self, ep: _Endpoint) -> None:
        listener = socket.create_server((self.host, 0))
        with ep.cond:
            ep.port = listener.getsockname()[1]
            ep.listener = listener
            ep.acceptor = threading.Thread(
                target=self._accept_loop, args=(ep, listener),
                name=f"socket-transport-accept-{ep.name}", daemon=True,
            )
            ep.acceptor.start()

    def register_client(self, name: str) -> None:
        if self._closed:
            raise NetworkError("transport is closed")
        if name in self._endpoints or name in self._clients:
            raise ValueError(f"duplicate endpoint name {name!r}")
        self._clients.add(name)

    def connect_peer(self, name: str, host: str, port: int) -> None:
        """Record the address of an endpoint served by another process."""
        self._peers[name] = (host, port)

    def address_of(self, name: str) -> Tuple[str, int]:
        """The (host, port) a peer should dial to reach ``name``."""
        try:
            return self._peers[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    def drain(self, name: str, timeout: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, finish in-flight calls."""
        ep = self._endpoint(name)
        with ep.cond:
            ep.draining = True
        self._stop(ep, conns=False)
        with ep.cond:
            ep.cond.wait_for(lambda: ep.active == 0, timeout)
        self._join(self._stop(ep))

    def _stop(self, ep: _Endpoint, conns: bool = True) -> List[threading.Thread]:
        """Stop listening and, with ``conns``, hang up on every served
        connection; returns the serving threads that are now ending."""
        with ep.cond:
            listener, ep.listener = ep.listener, None
            acceptor, ep.acceptor = ep.acceptor, None
            serving = dict(ep.conns) if conns else {}
        if listener is not None:
            _shutdown(listener)  # accept() returns at once with an error
            self._join([acceptor])
            listener.close()
        for sock in serving:
            _shutdown(sock)
        return list(serving.values())

    @staticmethod
    def _join(threads: List[threading.Thread]) -> None:
        give_up_at = time.monotonic() + CLOSE_GRACE_SECONDS
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(max(0.0, give_up_at - time.monotonic()))

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pooled = list(self._conns.values())
        threads = [t for ep in self._endpoints.values() for t in self._stop(ep)]
        # With both ends of every connection shut down, serving threads read
        # EOF and in-flight calls fail as NetworkError by themselves: quietly.
        _hang_up(pooled)
        self._join(threads)

    # -- server side -------------------------------------------------------
    def _accept_loop(self, ep: _Endpoint, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                if ep.listener is not listener:
                    return  # drained, unbound or closed
                time.sleep(0.05)  # ECONNABORTED, EMFILE: still listening
                continue
            with ep.cond:
                # threads leave ``conns`` here, not by themselves, so that
                # ``_stop`` never misses one that is still on its way out
                for done in [s for s, t in ep.conns.items() if not t.is_alive()]:
                    del ep.conns[done]
                if ep.listener is not listener or len(ep.conns) >= MAX_CONNECTIONS:
                    sock.close()
                    continue
                thread = ep.conns[sock] = threading.Thread(
                    target=self._serve_conn, args=(ep, sock),
                    name=f"socket-transport-serve-{ep.name}", daemon=True,
                )
                thread.start()

    def _serve_conn(self, ep: _Endpoint, sock: socket.socket) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                # idle bound: silent peers must not hold the endpoint's threads
                sock.settimeout(self.call_timeout)
                envelope, nbytes = read_frame(sock, self.max_frame_bytes, self.call_timeout)
                if not isinstance(envelope, Request):
                    break
                with ep.cond:
                    if ep.draining and ep.active == 0:
                        break
                    ep.active += 1
                try:
                    self._telemetry.received(nbytes)
                    resp = serve_request(ep.handler, envelope)
                    try:
                        frame = pack_frame(resp, self.max_frame_bytes)
                    except ProtocolError as exc:  # too large, not JSON, or nested too deep
                        frame = pack_frame(Response(
                            envelope.call_id, ok=False,
                            error_kind="network", error_message=str(exc),
                        ))
                    sock.settimeout(self.call_timeout)
                    sock.sendall(frame)
                    self._telemetry.sent(len(frame) - 4)
                finally:
                    with ep.cond:
                        ep.active -= 1
                        if ep.active == 0:
                            ep.cond.notify_all()
        except (ProtocolError, OSError):
            pass  # a hostile, idle or departed peer, or close(): hang up silently
        finally:
            sock.close()

    # -- client side -------------------------------------------------------
    def _connect(self, src: str, dst: str) -> socket.socket:
        address = self._peers.get(dst)
        if address is None:
            raise NetworkError(f"unknown host {dst!r}")
        last_error: Optional[BaseException] = None
        for attempt in range(self.reconnect_attempts):
            if attempt > 0:
                self._telemetry.reconnected()
                time.sleep(self.backoff.delay(attempt, self._rng))
            if self._closed:
                raise NetworkError("transport closed mid-call")
            try:
                sock = socket.create_connection(address, timeout=self.connect_timeout)
            except socket.timeout as exc:
                raise NetworkTimeout(
                    f"connect {src!r} → {dst!r} timed out after {self.connect_timeout:g}s"
                ) from exc
            except OSError as exc:
                last_error = exc
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        raise NetworkError(f"host {dst!r} is offline ({last_error})")

    def _round_trip(self, req: Request, frame: bytes, timeout: float) -> Tuple[Response, int]:
        key = (req.src, req.dst)
        with self._lock:
            conn = self._conns.get(key)
            if conn is None:
                conn = self._conns[key] = _Conn()
        with conn.lock:
            for attempt in range(2):  # one transparent retry if a pooled conn went stale
                if conn.sock is None:
                    conn.sock = self._connect(req.src, req.dst)
                try:
                    conn.sock.settimeout(max(timeout, 1e-9))  # 0 would mean non-blocking
                    conn.sock.sendall(frame)
                    envelope, nbytes = read_frame(conn.sock, self.max_frame_bytes, timeout)
                except socket.timeout as exc:
                    conn.drop()
                    raise NetworkTimeout(
                        f"call {req.src!r} → {req.dst!r} {req.method!r} "
                        f"timed out after {timeout:g}s"
                    ) from exc
                except ProtocolError as exc:
                    conn.drop()
                    raise NetworkError(f"corrupt frame from {req.dst!r}: {exc}") from exc
                except OSError as exc:
                    conn.drop()
                    if attempt == 0:
                        self._telemetry.reconnected()
                        continue
                    raise NetworkError(
                        f"connection {req.src!r} → {req.dst!r} lost: {exc}"
                    ) from exc
                if not isinstance(envelope, Response) or envelope.call_id != req.call_id:
                    conn.drop()
                    raise NetworkError(
                        f"desynchronised reply on {req.src!r} → {req.dst!r}"
                    )
                return envelope, nbytes
        raise NetworkError(f"call {req.src!r} → {req.dst!r} failed")  # pragma: no cover

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
        if src not in self._clients and src not in self._endpoints:
            raise NetworkError(f"unknown host {src!r}")
        req = Request(
            call_id=next(self._call_ids), src=src, dst=dst, method=method, payload=payload
        )
        try:
            frame = pack_frame(req, self.max_frame_bytes)
        except FrameTooLarge:
            self._telemetry.failed("frame_too_large")
            raise
        deadline = timeout if timeout is not None else self.call_timeout
        started = time.perf_counter()
        self._telemetry.sent(len(frame) - 4)
        try:
            resp, nbytes = self._round_trip(req, frame, deadline)
        except NetworkTimeout:
            self._telemetry.failed("timeout")
            raise
        except NetworkError:
            self._telemetry.failed("network")
            raise
        elapsed = time.perf_counter() - started
        self._telemetry.received(nbytes)
        self._telemetry.observed_call(method, elapsed)
        if not resp.ok:
            self._telemetry.failed(resp.error_kind or "remote")
            _raise_error_response(resp)
        return resp.result
