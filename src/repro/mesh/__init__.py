"""Real-process service mesh: run sheriff components as OS processes.

The sim runs every component in one process on the discrete-event
clock; this package is the deployment-shaped alternative the paper
actually operated — separate processes speaking the wire protocol of
:mod:`repro.net.protocol` over :class:`~repro.net.socket_transport.SocketTransport`.

* :mod:`repro.mesh.service` — the service-side skeleton every mesh
  component shares: bootstrap handshake (protocol-version checked),
  heartbeats, graceful drain on SIGTERM.
* :mod:`repro.mesh.worker` — a measurement worker process: builds its
  own seeded world + sheriff and serves ``check_price`` over the wire.
* :mod:`repro.mesh.launch` — the parent-side launcher: spawns N worker
  processes from a :class:`~repro.mesh.launch.WorkerSpec` (a
  :class:`~repro.core.config.SheriffConfig` plus the cell's seed, stores
  and users, handed over as JSON), handshakes, farms out checks, and
  shuts the fleet down.

``repro mesh --servers N`` (CLI) is the entry point; it prints the
fleet's wall-clock checks/sec.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".launch": ["MeshLauncher", "MeshReport", "WorkerSpec"],
    ".service": ["MeshService"],
})
