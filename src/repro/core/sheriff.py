"""The Price $heriff facade: wiring a full deployment.

:class:`SheriffWorld` bundles the simulated environment (geo database,
exchange rates, clock, tracker ecosystem, internet) and
:class:`PriceSheriff` stands up the seven components of Fig. 1 on top of
it: Coordinator, Aggregator, Database server, Measurement servers, the
IPC fleet, the P2P overlay of add-ons, and the doppelganger machinery.

Typical use (see ``examples/quickstart.py``)::

    world = SheriffWorld.create(seed=7)
    ...register stores on world.internet...
    sheriff = PriceSheriff(world)
    addon = sheriff.install_addon(browser)
    result = addon.check_price("http://store.example/product/p-1")
    print(result.render_result_page())

The deployment's knobs are the fields of
:class:`~repro.core.config.SheriffConfig`: pass one
(``PriceSheriff(world, config)``), keyword overrides of the defaults
(``PriceSheriff(world, quorum=2, job_queue=True)``), or both.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.browser.browser import Browser
from repro.browser.fingerprint import UserAgent
from repro.clients.ipc import build_default_ipcs
from repro.core.addon import SheriffAddon
from repro.core.aggregator import Aggregator
from repro.core.config import SheriffConfig
from repro.core.coordinator import Coordinator
from repro.core.database import DatabaseClient, DatabaseServer, database_rpc_handler
from repro.core.diffstorage import DiffStorage
from repro.core.dispatch import RequestDistributor
from repro.core.engine import PageCache, PriceCheckEngine
from repro.core.errors import ServerBusy
from repro.core.jobqueue import QueuedMeasurementTier
from repro.core.measurement import MeasurementServer, MeasurementStats
from repro.core.whitelist import Whitelist
from repro.crypto.group import SchnorrGroup, TEST_GROUP
from repro.currency.rates import ExchangeRateProvider
from repro.net.anonymity import AnonymityNetwork
from repro.net.events import Clock, EventLoop
from repro.net.faults import FaultPlan, chaos_plan
from repro.net.geo import GeoDatabase
from repro.net.p2p import PeerOverlay, make_peer_id
from repro.net.transport import SimTransport
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.profiles.doppelganger import Doppelganger, DoppelgangerManager
from repro.profiles.vector import ProfileVector
from repro.web.internet import Internet
from repro.web.trackers import TrackerEcosystem


@dataclass
class SheriffWorld:
    """The simulated environment a deployment runs in."""

    geodb: GeoDatabase
    rates: ExchangeRateProvider
    clock: Clock
    ecosystem: TrackerEcosystem
    internet: Internet
    rng: random.Random

    @classmethod
    def create(cls, seed: int = 2017, rate_drift: float = 0.0) -> "SheriffWorld":
        return cls(
            geodb=GeoDatabase(),
            rates=ExchangeRateProvider(drift=rate_drift),
            clock=Clock(),
            ecosystem=TrackerEcosystem(),
            internet=Internet(),
            rng=random.Random(seed),
        )

    def make_browser(
        self,
        country: str,
        city: Optional[str] = None,
        agent: Optional[UserAgent] = None,
        location=None,
    ) -> Browser:
        """A user browser located in the given country/city.

        Passing an explicit ``location`` reuses it instead of allocating
        a fresh IP — a machine that resets its browser profile keeps its
        address.
        """
        if location is None:
            location = self.geodb.make_location(country, city)
        return Browser(
            internet=self.internet,
            ecosystem=self.ecosystem,
            clock=self.clock,
            location=location,
            agent=agent,
        )


@dataclass
class ClusteringOutcome:
    """Result of one doppelganger clustering round."""

    mapping: Dict[str, int]
    doppelgangers: List[Doppelganger]
    centroids: List[ProfileVector]
    k: int


class PriceSheriff:
    """A complete $heriff deployment over a :class:`SheriffWorld`."""

    def __init__(
        self,
        world: SheriffWorld,
        config: Optional[SheriffConfig] = None,
        *,
        whitelist_domains: Optional[Sequence[str]] = None,
        crypto_group: Optional[SchnorrGroup] = None,
        overlay: Optional[PeerOverlay] = None,
        faults: Optional[FaultPlan] = None,
        telemetry: Union[Telemetry, bool, None] = None,
        **overrides: Any,
    ) -> None:
        """Stand the deployment up from ``config``.

        The named keywords are the collaborators — built objects, not
        values; ``overrides`` are :class:`SheriffConfig` fields replaced
        on (a copy of) ``config``, so ``PriceSheriff(world, quorum=2)``
        needs no config object.  ``telemetry`` takes a ready
        :class:`Telemetry` or, like any other override, the field's
        value.  A caller-built ``faults`` plan or shared ``overlay``
        keeps the telemetry it was built with.
        """
        if telemetry is not None and not isinstance(telemetry, Telemetry):
            overrides["telemetry"], telemetry = telemetry, None
        config = dataclasses.replace(
            config if config is not None else SheriffConfig(), **overrides
        ).validate()
        self.world = world
        self.config = config
        #: the observability plane: a metrics registry threaded through
        #: every hot path plus a sim-clock tracer, handed to every
        #: component as it is built.  Defaults to the null telemetry —
        #: all instrument calls become no-ops — and is purely
        #: observational either way: it never consumes an RNG stream or
        #: advances a clock, so runs are byte-identical with telemetry
        #: on or off (tested).
        if telemetry is None:
            telemetry = Telemetry() if config.telemetry else NULL_TELEMETRY
        self.telemetry = telemetry.bind_clock(world.clock)
        #: the shared pipelined engine: fetches land on the world clock's
        #: event loop, one bounded worker pool per Measurement server,
        #: and the (default-off) short-TTL page cache
        self.engine = PriceCheckEngine(
            EventLoop(world.clock),
            max_workers=config.max_fetch_workers,
            cache=PageCache(ttl=config.page_cache_ttl, telemetry=telemetry),
            telemetry=telemetry,
        )
        if faults is None and config.chaos_profile is not None:
            faults = chaos_plan(
                config.chaos_profile, seed=config.chaos_seed, telemetry=telemetry
            )
        #: the chaos schedule every layer below consults (None = clean)
        self.faults = faults
        self.quorum = config.quorum
        if whitelist_domains is None:
            # default: sanction every e-commerce store currently online
            whitelist_domains = [s.domain for s in world.internet.stores()]
        self.whitelist = Whitelist(whitelist_domains)
        #: the one Database server (Sect. 3.1.1), on the sqlite engine
        #: unless the config names the memory engine
        self.db = DatabaseServer(backend=config.db_backend, telemetry=telemetry)
        telemetry.registry.sampled(
            "counter", "sheriff_db_queries_total",
            "Round trips to the Database server", (),
            lambda: self.db.query_count,
        )
        #: the messaging plane every component speaks: ``"sim"``
        #: (default — deterministic, in-process) or ``"socket"`` (real
        #: TCP on blocking sockets, mesh-shaped).  The sim transport
        #: owns a private latency RNG stream and carries no fault plan,
        #: so it never perturbs chaos RNG draws.
        if config.transport == "socket":
            from repro.net.socket_transport import SocketTransport

            self.transport = SocketTransport(telemetry=telemetry)
        else:
            self.transport = SimTransport(telemetry=telemetry)
        self.transport_label = self.transport.label
        self.transport.bind("db", database_rpc_handler(self.db))
        self.diffstore = DiffStorage()
        # A crawling back-end can share the PPC network of the live
        # deployment by passing the live overlay (Sect. 7.1).
        if overlay is None:
            overlay = PeerOverlay(faults=faults, telemetry=telemetry)
        elif overlay.faults is None:
            overlay.faults = faults
        self.overlay = overlay
        self.distributor = RequestDistributor(telemetry=telemetry)
        self.dopp_manager = DoppelgangerManager(
            internet=world.internet,
            ecosystem=world.ecosystem,
            clock=world.clock,
            geodb=world.geodb,
            rng=world.rng,
        )
        self.coordinator = Coordinator(
            whitelist=self.whitelist,
            distributor=self.distributor,
            overlay=self.overlay,
            geodb=world.geodb,
            clock=world.clock,
            dopp_manager=self.dopp_manager,
            max_ppcs_per_request=config.max_ppcs_per_request,
            faults=faults,
            retry_budget=config.retry_budget,
            telemetry=telemetry,
            transport_label=self.transport_label,
        )
        self.crypto_group = crypto_group if crypto_group is not None else TEST_GROUP
        self.aggregator = Aggregator(
            group=self.crypto_group, rng=world.rng, telemetry=telemetry
        )
        # doppelganger state requests are onion-routed (Sect. 3.7)
        self.anonymity = AnonymityNetwork(n_relays=3)

        self.ipcs = build_default_ipcs(
            internet=world.internet,
            ecosystem=world.ecosystem,
            clock=world.clock,
            geodb=world.geodb,
            sites=config.ipc_sites,
            faults=faults,
        )
        self.measurement_servers: Dict[str, MeasurementServer] = {}
        for i in range(config.n_measurement_servers):
            self.add_measurement_server(f"ms-{i}")
        #: the queued measurement tier (None = direct dispatch): a
        #: bounded work-stealing outbox between the Coordinator and the
        #: Measurement servers, with admission control
        self.job_queue: Optional[QueuedMeasurementTier] = None
        if config.job_queue:
            self.job_queue = QueuedMeasurementTier(
                coordinator=self.coordinator,
                server_lookup=self.measurement_server,
                engine=self.engine,
                max_depth=config.queue_depth,
                steal_threshold=config.queue_steal_threshold,
                backoff=self.coordinator.backoff,
                telemetry=telemetry,
                transport_label=self.transport_label,
            )
        self.addons: List[SheriffAddon] = []

    # -- transport plumbing --------------------------------------------------
    def _db_handle_for(self, client_name: str) -> DatabaseClient:
        """What a component holds as "the database": a client that
        reaches the ``db`` endpoint over the transport."""
        return DatabaseClient(self.transport, src=client_name, dst="db")

    def shutdown(self) -> None:
        """Release transport resources (listeners, serving threads), then
        close the Database server's engine."""
        self.transport.close()
        self.db.close()

    def _job_entrypoint(self, server_name: str):
        """Where the add-on sends an admitted job and collects its record:
        the queue tier when one is enabled, else the owning Measurement
        server directly."""
        if self.job_queue is not None:
            return self.job_queue
        return self.measurement_server(server_name)

    def journey(self, job_id: str) -> Dict[str, Any]:
        """Everything recorded about one job's end-to-end journey.

        One lookup joins the job's span tree (assign → retry → admission
        → queue wait → steal → dispatch → fetch/parse/persist) and the
        state of its Coordinator record, under the ``ticket`` key (a
        failed job's carries its ``failure_reason``).  ``repro journey <job_id>``
        renders this; post-mortems read it raw.
        """
        ticket = None
        record = self.coordinator.jobs.get(job_id)
        if record is not None:
            ticket = {
                "server_name": record.server_name,
                "attempts": record.attempts,
                "completed": record.completed,
                "failed": record.failed,
                "failure_reason": record.failure_reason,
                "started_at": record.started_at,
            }
        return {
            "job_id": job_id,
            "spans": self.telemetry.tracer.spans_for(job_id),
            "ticket": ticket,
        }

    # -- elasticity: attach/detach Measurement servers ----------------------
    def build_measurement_server(self, name: str) -> MeasurementServer:
        """Construct (but do not enlist) a server wired to this deployment.

        The one place a :class:`MeasurementServer` is built: first
        start, supervised restart and the admin console's attach all
        get the same collaborators.
        """
        return MeasurementServer(
            name=name,
            coordinator=self.coordinator,
            db=self._db_handle_for(name),
            rates=self.world.rates,
            ipcs=self.ipcs,
            overlay=self.overlay,
            clock=self.world.clock,
            engine=self.engine,
            diffstore=self.diffstore,
            quorum=self.quorum,
            telemetry=self.telemetry,
            transport_label=self.transport_label,
        )

    def enlist_measurement_server(self, server: MeasurementServer) -> None:
        """Register a built server as a transport client (it calls the
        ``db`` endpoint; nothing calls it) and with the request
        distribution protocol.  A name already in use is refused by the
        transport before anything else changes."""
        name = server.name
        self.transport.register_client(name)
        self.measurement_servers[name] = server
        self.distributor.register_server(
            name, url=f"10.250.0.{len(self.measurement_servers)}", port=80,
            now=self.world.clock.now, transport=self.transport_label,
        )

    def add_measurement_server(self, name: str) -> MeasurementServer:
        server = self.build_measurement_server(name)
        self.enlist_measurement_server(server)
        return server

    def remove_measurement_server(self, name: str) -> None:
        """Take a server out of dispatch; refused while it has pending
        jobs (App. 10.2.1)."""
        pending = self.coordinator.jobs_on(name)
        if pending:
            raise ServerBusy(
                f"server {name!r} still has {len(pending)} pending jobs"
            )
        self.distributor.remove_server(name)
        self.measurement_servers.pop(name, None)
        self.engine.drop_pool(name)
        self.transport.unbind(name)

    def restart_measurement_server(self, name: str) -> MeasurementServer:
        """Replace a Measurement server with a fresh process (self-healing).

        The supervised restart action of :mod:`repro.ops`: jobs still
        pending on the old instance fail over to the survivors, the
        instance is rebuilt from the same wiring (its registration row —
        URL, port — and its transport client name are kept), any open
        flap window on the host is closed (the replacement process
        answers heartbeats), and the first heartbeat lands immediately.

        Determinism: rebuilding consumes no world RNG — the replacement's
        latency model is re-seeded from the server *name*, and fetch
        durations never influence row content — so a healed run stays
        row-identical to a fault-free one (tested in ``tests/ops``).
        """
        self.distributor.server(name)  # raises UnknownServer
        if self.coordinator.jobs_on(name):
            self.coordinator.handle_server_failure(name)
        fresh = self.build_measurement_server(name)
        self.measurement_servers[name] = fresh
        if self.faults is not None:
            self.faults.end_flap(name)
        self.distributor.heartbeat(name, self.world.clock.now)
        return fresh

    def measurement_server(self, name: str) -> MeasurementServer:
        return self.measurement_servers[name]

    # -- chaos / robustness accounting --------------------------------------
    def measurement_stats(self) -> MeasurementStats:
        """Retry/degradation counters aggregated over all servers."""
        total = MeasurementStats()
        for server in self.measurement_servers.values():
            total.add(server.stats)
        return total

    def fault_report(self) -> Dict[str, object]:
        """Everything the Fig. 7-style robustness panel displays."""
        stats = self.measurement_stats()
        report: Dict[str, object] = {
            "chaos_profile": self.faults.name if self.faults else "none",
            "faults_injected": len(self.faults.events) if self.faults else 0,
            "failovers": self.coordinator.failovers,
            "jobs_reassigned": self.coordinator.jobs_reassigned,
            "jobs_failed": self.coordinator.jobs_failed,
            "backoff_seconds": round(
                self.coordinator.backoff_seconds
                + sum(i.backoff_seconds for i in self.ipcs),
                3,
            ),
            "ipc_retries": stats.ipc_retries,
            "ipc_failures": stats.ipc_failures,
            "ppc_dropped": stats.ppc_dropped,
            "ppc_timeouts": stats.ppc_timeouts,
            "ppc_corrupt": stats.ppc_corrupt,
            "degraded_jobs": stats.degraded_jobs,
            "quorum_failures": stats.quorum_failures,
            "server_offline_events": self.distributor.offline_events,
        }
        return report

    # -- users ------------------------------------------------------------------
    def install_addon(
        self,
        browser: Browser,
        consent: bool = True,
        history_donation_opt_in: bool = False,
        peer_id: Optional[str] = None,
        serve_as_ppc: bool = True,
    ) -> SheriffAddon:
        addon = SheriffAddon(
            browser=browser,
            coordinator=self.coordinator,
            aggregator=self.aggregator,
            overlay=self.overlay,
            measurement_lookup=self._job_entrypoint,
            consent=consent,
            # minted from the world's seeded RNG so chaos event logs
            # replay identically from the same seed
            peer_id=peer_id or make_peer_id(self.world.rng),
            history_donation_opt_in=history_donation_opt_in,
            serve_as_ppc=serve_as_ppc,
            anonymity=self.anonymity,
        )
        self.addons.append(addon)
        return addon

    # -- doppelganger clustering (Sect. 3.7/3.8 + Sect. 4) --------------------
    def default_k(self, n_participants: int) -> int:
        """k = min(40, 10% of users) — the Sect. 4 operating point."""
        return max(1, min(40, n_participants // 10 if n_participants >= 10 else 1))

    def choose_k_from_donors(
        self,
        reference_domains: Sequence[str],
        cap: Optional[int] = None,
    ) -> int:
        """Pick k by silhouette over *donated* cleartext histories.

        The Sect. 4 evaluation runs on the profiles of users who opted
        in to donate history — the Coordinator never sees the others'
        cleartext.  Falls back to the 10%-cap default when too few
        donors exist.
        """
        from repro.profiles.kmeans import choose_k
        from repro.profiles.vector import profile_from_counts

        participants = [a for a in self.addons if a.consent]
        if cap is None:
            cap = self.default_k(len(participants))
        donors = [
            a for a in participants if a.history_donation_opt_in
        ]
        if len(donors) < 8:
            return cap
        points = {
            a.peer_id: list(
                profile_from_counts(
                    a.donated_history_counts(), reference_domains
                ).frequencies
            )
            for a in donors
        }
        return choose_k(points, cap=cap)

    def _sparse_random_centroids(
        self, k: int, m: int, quantization: int
    ) -> List[List[int]]:
        """Private initialization: the Coordinator cannot sample client
        points (it never sees them), so it draws sparse random profiles."""
        rng = self.world.rng
        centroids = []
        for _ in range(k):
            centroids.append([
                rng.randint(0, quantization) if rng.random() < 0.25 else 0
                for _ in range(m)
            ])
        return centroids

    def run_doppelganger_clustering(
        self,
        reference_domains: Sequence[str],
        k: Optional[int] = None,
        quantization: int = 100,
        halt_threshold: float = 0.02,
        max_iterations: int = 10,
        n_workers: int = 1,
        initial_centroids: Optional[Sequence[Sequence[int]]] = None,
    ) -> ClusteringOutcome:
        """One full clustering round + doppelganger (re)build."""
        from repro.crypto.secure_kmeans import KMeansCoordinator, crypto_round

        participants = [a for a in self.addons if a.consent]
        if not participants:
            raise RuntimeError("no consenting add-ons to cluster")
        if k is None:
            # silhouette sweep over donated histories, under the 10% cap
            k = self.choose_k_from_donors(reference_domains)

        crypto_coordinator = KMeansCoordinator(
            self.crypto_group, m=len(reference_domains),
            value_bound=quantization, rng=self.world.rng, n_workers=n_workers,
            telemetry=self.telemetry,
        )
        with crypto_round(self.telemetry):
            self.aggregator.begin_collection(crypto_coordinator, n_workers=n_workers)
            for addon in participants:
                ciphertext = addon.encrypted_profile(
                    crypto_coordinator.scheme, crypto_coordinator.public_keys,
                    reference_domains, self.world.rng, quantization,
                )
                try:
                    self.aggregator.submit_encrypted_profile(addon.peer_id, ciphertext)
                except ValueError:
                    # a malformed ciphertext costs its sender a cluster,
                    # not everyone else the round
                    continue

            if initial_centroids is None:
                initial_centroids = self._sparse_random_centroids(
                    k, len(reference_domains), quantization
                )
            crypto_coordinator.set_centroids(initial_centroids)
            mapping = self.aggregator.run_clustering(
                halt_threshold=halt_threshold, max_iterations=max_iterations
            )

        centroids = [
            ProfileVector(
                domains=tuple(reference_domains),
                frequencies=tuple(v / quantization for v in centroid),
                quantized=tuple(centroid),
                quantization=quantization,
            )
            for centroid in crypto_coordinator.centroids
        ]
        doppelgangers = self.dopp_manager.build_from_centroids(centroids)
        self.aggregator.set_doppelganger_ids(
            {d.cluster_index: d.dopp_id for d in doppelgangers}
        )
        return ClusteringOutcome(
            mapping=mapping, doppelgangers=doppelgangers,
            centroids=centroids, k=k,
        )


#: ``Sheriff`` is the blessed short name for the deployment facade.
Sheriff = PriceSheriff
