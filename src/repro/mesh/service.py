"""The service-side skeleton every mesh component shares.

:class:`MeshService` wraps a component's RPC methods with the three
behaviours a real deployment needs from every process:

* **bootstrap handshake** — ``mesh.hello`` verifies the caller speaks
  the same :data:`~repro.net.protocol.PROTOCOL_VERSION` before any real
  traffic, and reports the process identity (name, pid);
* **heartbeat** — ``mesh.ping`` answers instantly even while the
  component works, so the launcher's liveness checks don't queue behind
  price checks;
* **graceful drain** — ``mesh.drain`` (or SIGTERM, via
  :meth:`install_signal_handlers`) stops accepting new work, finishes
  what is in flight, and lets ``serve_forever`` return so the process
  exits 0.

The component's own methods are passed in as a plain
``{method: callable}`` dict — the skeleton is component-agnostic, the
same shape whether the process serves measurements, a database, or a
coordinator.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Any, Callable, Dict, Optional

from repro.net.protocol import PROTOCOL_VERSION
from repro.net.sim import NetworkError

__all__ = ["MeshService"]


class MeshService:
    """Handshake + heartbeat + drain around a dict of RPC methods."""

    def __init__(
        self,
        name: str,
        methods: Optional[Dict[str, Callable[[Any], Any]]] = None,
    ) -> None:
        self.name = name
        self.methods = dict(methods or {})
        self.started = False
        self.draining = False
        self.heartbeats = 0
        self.calls = 0
        self._stop = threading.Event()
        self.transport = None  # set by serve()

    # -- the transport-facing handler --------------------------------------
    def handle(self, method: str, payload: Any) -> Any:
        if method == "mesh.hello":
            return self._hello(payload)
        if method == "mesh.ping":
            self.heartbeats += 1
            return {"name": self.name, "pong": self.heartbeats}
        if method == "mesh.drain":
            self.begin_drain()
            return {"name": self.name, "draining": True}
        if method == "mesh.shutdown":
            self.begin_drain()
            self._stop.set()
            return {"name": self.name, "stopping": True}
        if self.draining:
            raise NetworkError(f"{self.name} is draining; not accepting work")
        handler = self.methods.get(method)
        if handler is None:
            raise KeyError(f"unknown mesh method {method!r}")
        self.calls += 1
        return handler(payload)

    def _hello(self, payload: Any) -> Dict[str, Any]:
        peer_version = (payload or {}).get("protocol")
        if peer_version != PROTOCOL_VERSION:
            raise NetworkError(
                f"protocol mismatch: peer speaks {peer_version!r}, "
                f"{self.name} speaks {PROTOCOL_VERSION}"
            )
        return {
            "name": self.name,
            "pid": os.getpid(),
            "protocol": PROTOCOL_VERSION,
            "methods": sorted(self.methods),
        }

    # -- lifecycle ----------------------------------------------------------
    def serve(self, transport, announce: bool = True) -> int:
        """Bind on ``transport`` and return the listening port.

        Non-blocking — the socket transport serves from its own
        threads; pair with :meth:`wait` to keep the main thread alive.
        When ``announce`` is true a ready line is printed to stdout for
        the launcher to parse::

            MESH-READY name=<name> port=<port> pid=<pid>
        """
        self.transport = transport
        transport.bind(self.name, self.handle)
        self.started = True
        port = transport.address_of(self.name)[1]
        if announce:
            print(f"MESH-READY name={self.name} port={port} pid={os.getpid()}",
                  flush=True)
        return port

    def begin_drain(self) -> None:
        self.draining = True

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain, then :meth:`wait` returns."""

        def _terminate(signum, frame):
            self.begin_drain()
            self._stop.set()

        signal.signal(signal.SIGTERM, _terminate)
        signal.signal(signal.SIGINT, _terminate)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until shutdown is requested; True if it was."""
        return self._stop.wait(timeout)

    def shutdown(self) -> None:
        """Finish in-flight calls, release the transport, stop waiting."""
        self.begin_drain()
        self._stop.set()
        if self.transport is not None:
            try:
                self.transport.drain(self.name)
            except (NetworkError, AttributeError):
                pass
            self.transport.close()
