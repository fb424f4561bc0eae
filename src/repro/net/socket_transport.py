"""Real-socket transport: asyncio streams, length-prefixed JSON frames.

The second :class:`~repro.net.transport.Transport` backend.  Each bound
endpoint is an asyncio TCP server on the loopback (or a configured
interface); calls travel as the same
:class:`~repro.net.protocol.Request`/``Response`` envelopes the sim
transport uses, framed with a 4-byte big-endian length prefix.  All
asyncio machinery lives on a private event loop in a daemon thread so
the rest of the system keeps its synchronous call shape —
``transport.call`` blocks the calling thread exactly like
``SimNetwork.request`` blocks the sim.

Failure mapping (the contract the conformance suite pins):

* connect refused / reset / peer gone → :class:`NetworkError`
* connect or read deadline passed → :class:`NetworkTimeout`
* remote handler raised → :class:`RemoteCallError`
* frame above the size limit → :class:`FrameTooLarge` (sender-side,
  before any bytes move — identical to the sim path)

Reconnects reuse :class:`~repro.net.faults.BackoffPolicy`, the same
capped-exponential-with-jitter schedule the dispatch retry path uses.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.net.faults import BackoffPolicy
from repro.net.geo import Location
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
    serve_request,
)

__all__ = ["SocketTransport"]

#: how long ``close()`` lets serving tasks and in-flight calls wind down
#: by themselves before it cancels the ones still running a handler
CLOSE_GRACE_SECONDS = 1.0


@dataclass
class _Endpoint:
    """One bound server: acceptor, address, and in-flight accounting."""

    name: str
    handler: Handler
    port: int = 0
    server: Optional[asyncio.AbstractServer] = None
    conns: Set[asyncio.StreamWriter] = field(default_factory=set)
    active: int = 0
    draining: bool = False
    idle: Optional[asyncio.Event] = None


@dataclass
class _Conn:
    """One pooled client connection (serialised by its lock)."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    lock: asyncio.Lock


class SocketTransport(Transport):
    """Transport over real TCP sockets on a private asyncio loop."""

    label = "socket"

    def __init__(
        self,
        host: str = "127.0.0.1",
        connect_timeout: float = 5.0,
        call_timeout: float = 30.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        backoff: Optional[BackoffPolicy] = None,
        reconnect_attempts: int = 3,
        handler_workers: int = 8,
        rng_seed: str = "socket-transport",
    ) -> None:
        self.host = host
        self.connect_timeout = connect_timeout
        self.call_timeout = call_timeout
        self.max_frame_bytes = max_frame_bytes
        self.backoff = backoff if backoff is not None else BackoffPolicy(
            base=0.05, factor=2.0, cap=1.0, jitter=0.2
        )
        self.reconnect_attempts = reconnect_attempts
        self._rng = random.Random(rng_seed)
        self._endpoints: Dict[str, _Endpoint] = {}
        self._peers: Dict[str, Tuple[str, int]] = {}
        self._clients: Set[str] = set()
        self._conns: Dict[Tuple[str, str], _Conn] = {}
        self._call_ids = itertools.count(1)
        self._closed = False
        self._telemetry = None
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=handler_workers, thread_name_prefix="transport-handler"
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="socket-transport", daemon=True
        )
        self._thread.start()

    # -- loop plumbing -----------------------------------------------------
    def _run(self, coro, timeout: Optional[float] = None):
        if self._closed:
            raise NetworkError("transport is closed")
        fut = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return fut.result(timeout)
        except concurrent.futures.TimeoutError:
            fut.cancel()
            raise NetworkTimeout("transport call abandoned (loop unresponsive)") from None
        except concurrent.futures.CancelledError:
            raise NetworkError("transport closed mid-call") from None

    # -- endpoint management ----------------------------------------------
    def bind(self, name: str, handler: Handler, location: Optional[Location] = None) -> None:
        if name in self._endpoints or name in self._clients:
            raise ValueError(f"duplicate endpoint name {name!r}")
        ep = _Endpoint(name=name, handler=handler)
        self._endpoints[name] = ep
        self._run(self._start_server(ep, port=0))
        self._peers[name] = (self.host, ep.port)

    async def _start_server(self, ep: _Endpoint, port: int) -> None:
        ep.idle = asyncio.Event()
        ep.idle.set()
        ep.draining = False
        ep.server = await asyncio.start_server(
            lambda r, w: self._serve_conn(ep, r, w), self.host, port
        )
        ep.port = ep.server.sockets[0].getsockname()[1]

    def register_client(self, name: str, location: Optional[Location] = None) -> None:
        if name in self._endpoints:
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

    def endpoints(self) -> List[str]:
        return sorted(set(self._endpoints) | self._clients | set(self._peers))

    def unbind(self, name: str) -> None:
        ep = self._endpoints.pop(name, None)
        self._clients.discard(name)
        self._peers.pop(name, None)
        if ep is not None:
            self._run(self._stop_server(ep, abort_conns=True))

    def take_offline(self, name: str) -> None:
        ep = self._endpoints.get(name)
        if ep is None:
            raise NetworkError(f"unknown host {name!r}")
        self._run(self._stop_server(ep, abort_conns=True))

    async def _stop_server(self, ep: _Endpoint, abort_conns: bool) -> None:
        if ep.server is not None:
            ep.server.close()
            await ep.server.wait_closed()
            ep.server = None
        if abort_conns:
            for writer in list(ep.conns):
                writer.close()
            ep.conns.clear()

    def restart_endpoint(self, name: str) -> None:
        """Rebind the endpoint's acceptor on its original port."""
        ep = self._endpoints.get(name)
        if ep is None:
            raise NetworkError(f"unknown host {name!r}")
        if ep.server is not None:
            return
        self._run(self._start_server(ep, port=ep.port))

    def drain(self, name: str, timeout: float = 10.0) -> None:
        """Graceful shutdown: stop accepting, finish in-flight calls."""
        ep = self._endpoints.get(name)
        if ep is None:
            raise NetworkError(f"unknown host {name!r}")
        self._run(self._drain_async(ep), timeout=timeout + 5.0)

    async def _drain_async(self, ep: _Endpoint) -> None:
        ep.draining = True
        await self._stop_server(ep, abort_conns=False)
        if ep.idle is not None:
            await ep.idle.wait()
        for writer in list(ep.conns):
            writer.close()
        ep.conns.clear()

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._run(self._close_async(), timeout=10.0)
        except NetworkError:
            pass
        self._closed = True
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        self._pool.shutdown(wait=False)
        if not self._loop.is_running() and not self._loop.is_closed():
            self._loop.close()

    async def _close_async(self) -> None:
        for ep in self._endpoints.values():
            await self._stop_server(ep, abort_conns=True)
        for conn in self._conns.values():
            conn.writer.close()
        self._conns.clear()
        # With both ends of every connection closed, serving tasks read
        # EOF and return, and in-flight calls fail as NetworkError, by
        # themselves.  Cancelling them instead makes the done-callback of
        # asyncio's stream server log a CancelledError traceback per
        # connection, so only what outlives the grace period is cancelled.
        current = asyncio.current_task()
        pending = [t for t in asyncio.all_tasks(self._loop) if t is not current]
        if pending:
            _, pending = await asyncio.wait(pending, timeout=CLOSE_GRACE_SECONDS)
        for task in pending:
            task.cancel()
        await asyncio.sleep(0)

    # -- server side -------------------------------------------------------
    async def _serve_conn(
        self, ep: _Endpoint, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        ep.conns.add(writer)
        try:
            while True:
                try:
                    envelope = await read_frame(reader, self.max_frame_bytes)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    ProtocolError,
                    OSError,
                ):
                    break
                if not isinstance(envelope, Request):
                    break
                if ep.draining and ep.active == 0:
                    break
                ep.active += 1
                if ep.idle is not None:
                    ep.idle.clear()
                try:
                    if self._telemetry:
                        self._telemetry.received(len(pack_frame(envelope)) - 4)
                    resp = await self._loop.run_in_executor(
                        self._pool, serve_request, ep.handler, envelope
                    )
                    try:
                        frame = pack_frame(resp, self.max_frame_bytes)
                    except FrameTooLarge as exc:
                        frame = pack_frame(
                            Response(
                                envelope.call_id,
                                ok=False,
                                error_kind="network",
                                error_message=str(exc),
                            )
                        )
                    try:
                        writer.write(frame)
                        if self._telemetry:
                            self._telemetry.sent(len(frame) - 4)
                        await writer.drain()
                    except (ConnectionError, OSError):
                        break  # the peer, or close(), hung up mid-call
                finally:
                    ep.active -= 1
                    if ep.active == 0 and ep.idle is not None:
                        ep.idle.set()
        finally:
            ep.conns.discard(writer)
            writer.close()

    # -- client side -------------------------------------------------------
    async def _connect(self, src: str, dst: str) -> _Conn:
        key = (src, dst)
        conn = self._conns.get(key)
        if conn is not None and not conn.writer.is_closing():
            return conn
        host, port = self._peers.get(dst, (None, None))
        if host is None:
            raise NetworkError(f"unknown host {dst!r}")
        last_error: Optional[BaseException] = None
        for attempt in range(self.reconnect_attempts):
            if attempt > 0:
                if self._telemetry:
                    self._telemetry.reconnected()
                await asyncio.sleep(self.backoff.delay(attempt, self._rng))
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), self.connect_timeout
                )
            except asyncio.TimeoutError as exc:
                raise NetworkTimeout(
                    f"connect {src!r} → {dst!r} timed out after {self.connect_timeout:g}s"
                ) from exc
            except (ConnectionError, OSError) as exc:
                last_error = exc
                continue
            conn = _Conn(reader=reader, writer=writer, lock=asyncio.Lock())
            self._conns[key] = conn
            return conn
        raise NetworkError(f"host {dst!r} is offline ({last_error})")

    async def _call_async(
        self, req: Request, frame: bytes, timeout: float
    ) -> Response:
        attempts = 2  # one transparent retry if a pooled conn went stale
        for attempt in range(attempts):
            conn = await self._connect(req.src, req.dst)
            async with conn.lock:
                try:
                    conn.writer.write(frame)
                    await conn.writer.drain()
                    envelope = await asyncio.wait_for(
                        read_frame(conn.reader, self.max_frame_bytes), timeout
                    )
                except asyncio.TimeoutError as exc:
                    conn.writer.close()
                    self._conns.pop((req.src, req.dst), None)
                    raise NetworkTimeout(
                        f"call {req.src!r} → {req.dst!r} {req.method!r} "
                        f"timed out after {timeout:g}s"
                    ) from exc
                except (
                    asyncio.IncompleteReadError,
                    ConnectionError,
                    OSError,
                ) as exc:
                    conn.writer.close()
                    self._conns.pop((req.src, req.dst), None)
                    if attempt + 1 < attempts:
                        if self._telemetry:
                            self._telemetry.reconnected()
                        continue
                    raise NetworkError(
                        f"connection {req.src!r} → {req.dst!r} lost: {exc}"
                    ) from exc
            if not isinstance(envelope, Response) or envelope.call_id != req.call_id:
                conn.writer.close()
                self._conns.pop((req.src, req.dst), None)
                raise NetworkError(
                    f"desynchronised reply on {req.src!r} → {req.dst!r}"
                )
            return envelope
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
            if self._telemetry:
                self._telemetry.failed("frame_too_large")
            raise
        deadline = timeout if timeout is not None else self.call_timeout
        started = time.perf_counter()
        if self._telemetry:
            self._telemetry.sent(len(frame) - 4)
        try:
            resp = self._run(
                self._call_async(req, frame, deadline),
                timeout=deadline + self.connect_timeout * self.reconnect_attempts + 10.0,
            )
        except NetworkTimeout:
            if self._telemetry:
                self._telemetry.failed("timeout")
            raise
        except NetworkError:
            if self._telemetry:
                self._telemetry.failed("network")
            raise
        elapsed = time.perf_counter() - started
        if self._telemetry:
            self._telemetry.received(len(pack_frame(resp)) - 4)
            self._telemetry.observed_call(method, elapsed)
        if not resp.ok:
            if self._telemetry:
                self._telemetry.failed(resp.error_kind or "remote")
            _raise_error_response(resp)
        return resp.result
