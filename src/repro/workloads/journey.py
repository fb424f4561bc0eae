"""The journey drill: a seeded queued run that provably steals a job.

``repro journey`` and the CI observability artifact both need a run
where the interesting things *happen*: jobs are admitted through the
queue tier, wait, get stolen across Measurement servers, and land rows
— all under full telemetry so one ``trace_id`` reconstructs the whole
causal tree.  This module packages that run.

The recipe mirrors the queue-equivalence property test
(``tests/core/test_queue_equivalence.py``): three waves of three
submissions against a two-server fleet with ``queue_steal_threshold=1``,
where ``ms-1`` is marked offline while each wave piles onto ``ms-0``
and resurrected just before the drain — so imbalance steals fire
deterministically, and the run stays row-identical to the undisturbed
direct run (that equivalence is the tested property; this module only
re-stages it with the journey plane watching).

:func:`run_journey` returns the raw run; :func:`run_slo_drill` runs it
under the self-healing layer with burn-rate probes armed, ticking the
supervisor after every wave, and reports which SLO alerts fired — the
``repro slo`` verb and the burn-rate acceptance test both drive it,
once clean and once under an injected latency fault
(``latency_fault=True``), expecting silence and a page respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.config import SheriffConfig
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.obs import Telemetry
from repro.workloads.stores import build_named_stores, uniform_store_specs

__all__ = [
    "JOURNEY_IPC_SITES",
    "JourneyConfig",
    "JourneyRun",
    "run_journey",
    "run_slo_drill",
]

#: a reduced IPC fleet keeps the drill fast while still fanning out
#: across countries (the full deployment uses all 30 sites)
JOURNEY_IPC_SITES: Tuple[Tuple[str, str, float], ...] = (
    ("ES", "Madrid", 1.0),
    ("ES", "Barcelona", 1.0),
    ("US", "Tennessee", 1.0),
    ("CA", "Ontario", 1.0),
    ("GB", "London", 1.0),
    ("FR", "Paris", 1.0),
    ("JP", "Tokyo", 1.0),
    ("DE", "Berlin", 1.0),
)


@dataclass
class JourneyConfig(SheriffConfig):
    """The deployment knobs, at the drill's values (they force at least
    one steal), plus the drill's own.

    ``job_queue=False`` routes submissions through the direct tier — the
    equivalence baseline; ``telemetry=False`` runs with the null
    telemetry — the row-identity (tracing on/off) check flips only that.
    """

    #: ``ms-0`` and ``ms-1``, which the drill takes down and brings back
    n_measurement_servers: int = 2
    ipc_sites: Tuple[Tuple[str, str, float], ...] = JOURNEY_IPC_SITES
    dispatch_policy: str = "round_robin"
    job_queue: bool = True
    #: threshold 1 makes any depth imbalance eligible for a steal
    queue_steal_threshold: Optional[int] = 1
    telemetry: bool = True
    seed: int = 71
    store_seed: int = 74
    n_stores: int = 6
    n_initiators: int = 3
    waves: int = 3
    #: take ``ms-1`` down while each wave is admitted, bring it back
    #: before the drain — the forced-steal choreography
    disrupt: bool = True
    #: inject a pure latency fault: every IPC vantage point becomes a
    #: chronically overloaded node (Sect. 5's PlanetLab pathology),
    #: stretching each fetch by ``fault_slowdown`` on the simulated
    #: timeline without losing a single row — slow, not broken, so the
    #: latency budget burns while availability stays perfect
    latency_fault: bool = False
    #: the injected slowdown factor (kept under the Measurement server's
    #: 4.0 proxy-timeout budget so fetches crawl instead of timing out)
    fault_slowdown: float = 3.9
    #: simulated seconds between waves
    wave_gap_s: float = 3600.0


@dataclass
class JourneyRun:
    """Everything the drill produced, with the telemetry still warm."""

    sheriff: PriceSheriff
    world: SheriffWorld
    job_ids: List[str] = field(default_factory=list)
    stolen_job_ids: List[str] = field(default_factory=list)
    steals: Dict[str, int] = field(default_factory=dict)
    rows: int = 0
    supervisor: object = None

    @property
    def telemetry(self) -> Telemetry:
        return self.sheriff.telemetry


def run_journey(
    config: Optional[JourneyConfig] = None,
    supervisor_factory=None,
) -> JourneyRun:
    """Run the seeded forced-steal drill under full telemetry.

    ``supervisor_factory`` (sheriff → supervisor), when given, stands up
    the self-healing layer before any wave and ticks it after each
    wave's drain — the hook :func:`run_slo_drill` uses to arm burn-rate
    probes without this module importing the ops layer.
    """
    config = config if config is not None else JourneyConfig()
    world = SheriffWorld.create(seed=config.seed)
    specs = uniform_store_specs(config.n_stores, seed=config.store_seed)
    stores = build_named_stores(world, specs)
    ipc_sites = (
        tuple(
            (country, city, config.fault_slowdown)
            for country, city, _ in config.ipc_sites
        )
        if config.latency_fault
        else config.ipc_sites
    )
    sheriff = PriceSheriff(world, config, ipc_sites=ipc_sites)
    # same-country peers so PPC fan-out has volunteers to ask
    for city in ("Madrid", "Barcelona", "Valencia"):
        sheriff.install_addon(world.make_browser("ES", city))
    initiators = [
        sheriff.install_addon(
            world.make_browser("ES", "Madrid"), serve_as_ppc=False
        )
        for _ in range(config.n_initiators)
    ]
    urls = []
    for spec in specs:
        store = stores[spec.domain]
        urls.extend(
            store.product_url(p.product_id) for p in store.catalog.products
        )

    supervisor = (
        supervisor_factory(sheriff) if supervisor_factory is not None else None
    )
    run = JourneyRun(sheriff=sheriff, world=world, supervisor=supervisor)
    index = 0
    for _ in range(config.waves):
        if config.disrupt:
            sheriff.distributor.mark_offline("ms-1")
        wave = []
        for addon in initiators:
            url = urls[index % len(urls)]
            index += 1
            wave.append((addon, addon.submit_price_check(url)))
        if config.disrupt:
            sheriff.distributor.heartbeat("ms-1", world.clock.now)
        for addon, handle in wave:
            run.job_ids.append(handle.job_id)
            result = addon.collect(handle)
            run.rows += len(result.rows)
        if supervisor is not None:
            supervisor.tick()
        world.clock.advance(config.wave_gap_s)

    run.steals = (
        dict(sheriff.job_queue.steals)
        if sheriff.job_queue is not None
        else {}
    )
    tracer = sheriff.telemetry.tracer
    run.stolen_job_ids = [
        job_id
        for job_id in run.job_ids
        if any(span.name == "steal" for span in tracer.spans_for(job_id))
    ]
    return run


def run_slo_drill(
    config: Optional[JourneyConfig] = None,
    max_burn_rate: float = 1.0,
    check_latency_threshold: float = 2.5,
    check_latency_objective: float = 0.90,
):
    """The journey drill under armed SLO burn-rate probes.

    Returns ``(run, report, alerts)``: the :class:`JourneyRun` (with
    ``run.supervisor`` live), the SLO engine's compliance report, and
    the ``slo/*`` audit events the supervisor recorded — empty on a
    clean run, non-empty when an injected latency fault burns an error
    budget faster than ``max_burn_rate``.

    The drill pins ``check-latency`` at 2.5 simulated seconds: above
    the clean run's slowest check (~1.6s) and below the slowest check
    of a ``latency_fault=True`` run (~4x slower), and exactly a
    histogram bucket bound, so the conservative ``count_le`` good-event
    count discriminates the two runs crisply.
    """
    from repro.obs.slo import SLOEngine, build_default_slos
    from repro.ops.wiring import build_supervisor

    def factory(sheriff):
        engine = build_default_slos(
            SLOEngine(sheriff.telemetry.registry, sheriff.world.clock),
            check_latency_threshold=check_latency_threshold,
            check_latency_objective=check_latency_objective,
        )
        return build_supervisor(
            sheriff, slo_engine=engine, slo_max_burn_rate=max_burn_rate
        )

    run = run_journey(config, supervisor_factory=factory)
    engine = run.supervisor.slo_engine
    report = engine.report()
    alerts = [
        event
        for event in run.supervisor.audit.events(kind="component_down")
        if event.component.startswith("slo/")
    ]
    return run, report, alerts
