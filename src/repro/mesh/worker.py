"""A measurement worker process for the mesh.

Each worker is a *whole measurement cell*: it builds its own seeded
world (stores, IPC fleet, sheriff with the pipelined engine) and serves
``check_price`` calls over the socket transport.  The parent launcher
farms a workload's checks across N such processes — the multi-core
scale-out the single-process sim cannot give — and each check runs the
exact same engine code the Tier-1 suite proves row-identical.

Run directly (the launcher does this; the one positional argument is
the :class:`~repro.mesh.launch.WorkerSpec` as JSON, every
:class:`~repro.core.config.SheriffConfig` knob included)::

    python -m repro.mesh.worker --name w0 '{"seed": 2017, "n_stores": 4}'

prints ``MESH-READY name=w0 port=<p> pid=<pid>`` once serving, then
blocks until SIGTERM (graceful drain) or a ``mesh.shutdown`` call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Any, Dict

from repro.mesh.launch import WorkerSpec
from repro.mesh.service import MeshService
from repro.net.socket_transport import SocketTransport
from repro.workloads.cell import build_cell

__all__ = ["MeasurementWorker", "main", "worker_from_argv"]


class MeasurementWorker:
    """One worker cell: seeded world + sheriff + addon roster."""

    def __init__(self, name: str, spec: WorkerSpec) -> None:
        self.name = name
        self.world, self.sheriff, self.urls, self.addons = build_cell(
            spec, spec.n_users
        )
        self.checks_done = 0
        self.rows_total = 0
        self.service = MeshService(
            name,
            methods={
                "check_price": self.check_price,
                "stats": self.stats,
            },
        )

    # -- RPC methods --------------------------------------------------------
    def check_price(self, payload: Any) -> Dict[str, Any]:
        """Run one price check; payload: {"index": i, "user": u?}."""
        payload = payload or {}
        index = int(payload.get("index", 0))
        user = int(payload.get("user", index)) % len(self.addons)
        url = self.urls[index % len(self.urls)]
        addon = self.addons[user]
        result = addon.collect(addon.submit_price_check(url))
        self.checks_done += 1
        self.rows_total += len(result.rows)
        digest = hashlib.sha256(
            json.dumps(
                [[row.proxy_id, row.original_text, row.amount_eur]
                 for row in result.rows],
                sort_keys=True,
            ).encode()
        ).hexdigest()[:16]
        return {
            "worker": self.name,
            "url": url,
            "rows": len(result.rows),
            "digest": digest,
        }

    def stats(self, payload: Any) -> Dict[str, Any]:
        return {
            "worker": self.name,
            "checks": self.checks_done,
            "rows": self.rows_total,
            "batched_writes": self.sheriff.db.batched_writes,
        }

    # -- lifecycle ----------------------------------------------------------
    def serve_forever(self, transport: SocketTransport, announce: bool = True) -> None:
        self.service.install_signal_handlers()
        self.service.serve(transport, announce=announce)
        self.service.wait()
        self.service.shutdown()
        self.sheriff.shutdown()


def worker_from_argv(argv=None) -> MeasurementWorker:
    """The worker a ``WorkerSpec.argv(name)`` command line describes."""
    parser = argparse.ArgumentParser(
        prog="repro.mesh.worker",
        description="One mesh measurement worker process (internal).",
    )
    parser.add_argument("--name", required=True)
    parser.add_argument("spec", type=json.loads,
                        help="the WorkerSpec as a JSON object")
    args = parser.parse_args(argv)
    return MeasurementWorker(args.name, WorkerSpec.from_dict(args.spec))


def main(argv=None) -> int:
    worker_from_argv(argv).serve_forever(SocketTransport())
    return 0


if __name__ == "__main__":
    sys.exit(main())
