"""A measurement worker process for the mesh.

Each worker is a *whole measurement cell*: it builds its own seeded
world (stores, IPC fleet, sheriff with the pipelined engine) and serves
``check_price`` calls over the socket transport.  The parent launcher
farms a workload's checks across N such processes — the multi-core
scale-out the single-process sim cannot give — and each check runs the
exact same engine code the Tier-1 suite proves row-identical.

Run directly (the launcher does this)::

    python -m repro.mesh.worker --name w0 --seed 2017 --stores 4 \
        --servers 2 --ipcs 10 --users 8

prints ``MESH-READY name=w0 port=<p> pid=<pid>`` once serving, then
blocks until SIGTERM (graceful drain) or a ``mesh.shutdown`` call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Any, Dict, List

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.mesh.service import MeshService
from repro.net.socket_transport import SocketTransport
from repro.workloads.stores import build_named_stores, uniform_store_specs

__all__ = ["MeasurementWorker", "main"]

#: countries worker users rotate through (same roster as the
#: throughput workload, so mesh checks exercise the same geography)
USER_COUNTRIES = ("ES", "US", "GB", "DE", "FR", "JP", "CA", "IT")


class MeasurementWorker:
    """One worker cell: seeded world + sheriff + addon roster."""

    def __init__(
        self,
        name: str,
        seed: int = 2017,
        n_stores: int = 4,
        n_servers: int = 2,
        n_ipcs: int = 10,
        n_users: int = 8,
        max_fetch_workers: int = 16,
        page_cache_ttl: float = 30.0,
    ) -> None:
        self.name = name
        self.world = SheriffWorld.create(seed=seed)
        specs = uniform_store_specs(n_stores, seed=seed + 3)
        stores = build_named_stores(self.world, specs)
        self.sheriff = PriceSheriff(
            self.world,
            n_measurement_servers=n_servers,
            ipc_sites=DEFAULT_IPC_SITES[:n_ipcs],
            dispatch_policy="round_robin",
            max_fetch_workers=max_fetch_workers,
            page_cache_ttl=page_cache_ttl,
        )
        self.urls: List[str] = []
        for spec in specs:
            store = stores[spec.domain]
            for product in store.catalog.products:
                self.urls.append(store.product_url(product.product_id))
        self.addons = [
            self.sheriff.install_addon(
                self.world.make_browser(USER_COUNTRIES[i % len(USER_COUNTRIES)])
            )
            for i in range(n_users)
        ]
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
        pending = addon.submit_price_check(url)
        result = addon.collect(pending)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.mesh.worker",
        description="One mesh measurement worker process (internal).",
    )
    parser.add_argument("--name", required=True)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--stores", type=int, default=4)
    parser.add_argument("--servers", type=int, default=2)
    parser.add_argument("--ipcs", type=int, default=10)
    parser.add_argument("--users", type=int, default=8)
    parser.add_argument("--fetch-workers", type=int, default=16)
    parser.add_argument("--cache-ttl", type=float, default=30.0)
    args = parser.parse_args(argv)
    worker = MeasurementWorker(
        name=args.name,
        seed=args.seed,
        n_stores=args.stores,
        n_servers=args.servers,
        n_ipcs=args.ipcs,
        n_users=args.users,
        max_fetch_workers=args.fetch_workers,
        page_cache_ttl=args.cache_ttl,
    )
    worker.serve_forever(SocketTransport())
    return 0


if __name__ == "__main__":
    sys.exit(main())
