"""The live deployment simulation (Sect. 6) and the Fig. 5 adoption model.

:class:`LiveDeployment` stands up the full system — content web, the
calibrated retailer roster plus the honest long tail, the 30-node IPC
fleet, four Measurement servers, a geo-distributed population — and
replays the deployment window: users issue price checks against stores
drawn by popularity, arriving at instants drawn ahead of time (open
loop), so a check's own duration never shifts a later arrival.

The paper's window runs August 2015 – September 2016 with 1265 users
and >5700 requests over 1994 domains; the default configuration is a
faithful but smaller instance (the same phenomena at ~1/8 scale) so the
whole evaluation can be regenerated in minutes —
:meth:`DeploymentConfig.paper_scale` gives the full-size parameters.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.addon import PriceCheckFailed, PriceSelectionError
from repro.core.config import SheriffConfig, knob
from repro.core.coordinator import RequestRejected
from repro.core.pricecheck import PriceCheckResult
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.net.events import SECONDS_PER_DAY
from repro.workloads.alexa import ContentWeb
from repro.workloads.population import Population, PopulationConfig
from repro.workloads.stores import (
    StoreSpec,
    build_named_stores,
    extra_pd_store_specs,
    named_store_specs,
    uniform_store_specs,
)

if TYPE_CHECKING:
    from repro.ops import HealReport, Supervisor


@dataclass
class DeploymentConfig(SheriffConfig):
    """Knobs of one live-deployment run: the system's
    (:class:`~repro.core.config.SheriffConfig`) plus the workload's."""

    n_measurement_servers: int = 4
    seed: int = 2017
    n_users: int = knob(150, ge=1)
    n_requests: int = knob(600, ge=0)
    n_extra_pd_stores: int = knob(20, ge=0)
    n_uniform_stores: int = knob(60, ge=0)
    n_content_domains: int = knob(120, ge=1)
    duration_days: float = knob(390.0, gt=0)
    population: Optional[PopulationConfig] = None
    #: extra checks of the flagship products users were famously curious
    #: about (the Phase One IQ280 case of Sect. 6.2)
    spotlight_checks: int = knob(3, ge=0)
    spotlight_products: Tuple[Tuple[str, str], ...] = (
        ("digitalrev.com", "digitalrev-iq280"),
    )
    #: run the self-healing operations layer (repro.ops): a Supervisor
    #: ticks once per request and heals failed components; supervision
    #: is RNG-free so rows are identical with it on or off (tested)
    supervised: bool = False
    #: persist the supervisor's audit trail as JSON lines here
    audit_path: Optional[str] = None

    @classmethod
    def paper_scale(cls) -> "DeploymentConfig":
        """The full Sect. 6 scale (slow: hours of simulation)."""
        return cls(
            n_users=1265,
            n_requests=5700,
            n_extra_pd_stores=47,
            n_uniform_stores=1900,
            n_content_domains=400,
        )

    @classmethod
    def test_scale(cls) -> "DeploymentConfig":
        """A minimal instance for unit tests."""
        return cls(
            n_users=40,
            n_requests=80,
            n_extra_pd_stores=5,
            n_uniform_stores=10,
            n_content_domains=40,
            ipc_sites=DEFAULT_IPC_SITES[:10],
        )


@dataclass
class DeploymentDataset:
    """Everything a run produced, ready for the Sect. 6 analyses."""

    config: DeploymentConfig
    world: SheriffWorld
    sheriff: PriceSheriff
    population: Population
    results: List[PriceCheckResult]
    failures: Counter
    request_countries: Counter
    #: price checks attempted / ending in an explicit failure report
    #: (rejections, selection errors, exhausted retries, lost quorum)
    n_attempted: int = 0
    n_explicit_failures: int = 0
    #: the operations layer, when the run was supervised (else None)
    supervisor: Optional["Supervisor"] = None
    #: outcome of the end-of-run healing convergence loop
    heal_report: Optional["HealReport"] = None

    @property
    def n_domains_checked(self) -> int:
        return len({r.domain for r in self.results})

    @property
    def n_resolved(self) -> int:
        """Checks that ended in a terminal outcome: a result page or an
        explicit failure report — never a hang or a silent drop."""
        return len(self.results) + self.n_explicit_failures

    @property
    def resolution_rate(self) -> float:
        if self.n_attempted == 0:
            return 1.0
        return self.n_resolved / self.n_attempted


class LiveDeployment:
    """Builds the world and replays the deployment window."""

    def __init__(self, config: Optional[DeploymentConfig] = None) -> None:
        self.config = config if config is not None else DeploymentConfig()
        cfg = self.config
        self._rng = random.Random(cfg.seed)
        self.world = SheriffWorld.create(seed=cfg.seed)
        self.content_web = ContentWeb(
            self.world.internet, self.world.ecosystem,
            n_domains=cfg.n_content_domains, seed=cfg.seed + 1,
        )
        self.specs: List[StoreSpec] = (
            named_store_specs()
            + extra_pd_store_specs(cfg.n_extra_pd_stores, seed=cfg.seed + 2)
            + uniform_store_specs(cfg.n_uniform_stores, seed=cfg.seed + 3)
        )
        self.stores = build_named_stores(self.world, self.specs)
        self.sheriff = PriceSheriff(self.world, cfg)
        self.population = Population(
            self.sheriff, self.content_web,
            cfg.population if cfg.population is not None
            else PopulationConfig(n_users=cfg.n_users, seed=cfg.seed + 4),
        )
        self._store_weights = [s.popularity for s in self.specs]
        #: the self-healing layer — built only when asked for; its ticks
        #: are RNG-free, so rows match an unsupervised run exactly
        self.supervisor: Optional[Supervisor] = None
        if cfg.supervised:
            from repro.ops import build_supervisor

            self.supervisor = build_supervisor(self.sheriff, audit_path=cfg.audit_path)

    # -- request generation ------------------------------------------------
    def _pick_store(self) -> StoreSpec:
        return self._rng.choices(self.specs, weights=self._store_weights, k=1)[0]

    def run(self) -> DeploymentDataset:
        cfg = self.config
        self.population.build()
        results: List[PriceCheckResult] = []
        failures: Counter = Counter()
        request_countries: Counter = Counter()
        attempted = 0
        explicit_failures = 0
        gap_seconds = cfg.duration_days * SECONDS_PER_DAY / max(1, cfg.n_requests)
        clock = self.world.clock
        arrival = clock.now

        def arrive() -> None:
            # open loop: users arrive on their own schedule, whenever
            # the checks before them finish
            nonlocal arrival
            arrival += gap_seconds * self._rng.uniform(0.5, 1.5)
            clock.advance_to(max(clock.now, arrival))

        for _ in range(cfg.n_requests):
            arrive()
            addon = self.population.pick_user(self._rng)
            spec = self._pick_store()
            store = self.stores[spec.domain]
            product = store.catalog.sample(self._rng, 1)[0]
            url = store.product_url(product.product_id)
            attempted += 1
            try:
                result = addon.check_price(url)
            except (RequestRejected, PriceSelectionError, PriceCheckFailed):
                failures[spec.domain] += 1
                explicit_failures += 1
                self._supervision_tick()
                continue
            results.append(result)
            request_countries[addon.browser.location.country] += 1
            self._supervision_tick()

        for domain, product_id in cfg.spotlight_products:
            store = self.stores.get(domain)
            if store is None or store.catalog.get(product_id) is None:
                continue
            url = store.product_url(product_id)
            for _ in range(cfg.spotlight_checks):
                arrive()
                addon = self.population.pick_user(self._rng)
                attempted += 1
                try:
                    result = addon.check_price(url)
                except (RequestRejected, PriceSelectionError, PriceCheckFailed):
                    failures[domain] += 1
                    explicit_failures += 1
                    self._supervision_tick()
                    continue
                results.append(result)
                request_countries[addon.browser.location.country] += 1
                self._supervision_tick()

        # End-of-run convergence: let the supervisor finish healing
        # whatever the chaos schedule left flapped.  All rows are
        # already persisted, so advancing the clock here cannot change
        # the dataset — only the components' final health.
        heal_report = None
        if self.supervisor is not None:
            heal_report = self.supervisor.heal(
                max_seconds=3600.0, step=15.0,
                pre_tick=self.sheriff.coordinator.chaos_tick,
            )

        return DeploymentDataset(
            config=cfg,
            world=self.world,
            sheriff=self.sheriff,
            population=self.population,
            results=results,
            failures=failures,
            request_countries=request_countries,
            n_attempted=attempted,
            n_explicit_failures=explicit_failures,
            supervisor=self.supervisor,
            heal_report=heal_report,
        )

    def _supervision_tick(self) -> None:
        """One supervision sweep after a request resolves (RNG-free)."""
        if self.supervisor is not None:
            self.supervisor.tick()


# -- Fig. 5: add-on adoption over time -------------------------------------

@dataclass
class AdoptionSeries:
    """Daily downloads and active users of the add-on (Fig. 5)."""

    days: List[int]
    daily_downloads: List[float]
    active_users: List[float]

    def spike_days(self) -> List[int]:
        """Days whose downloads exceed 5 × median."""
        ordered = sorted(self.daily_downloads)
        median = ordered[len(ordered) // 2]
        floor = max(1.0, median) * 5.0
        return [d for d, v in zip(self.days, self.daily_downloads) if v > floor]


#: (day, amplitude) of the three press events the paper describes —
#: articles in the popular press and the Swiss national TV documentary.
PRESS_EVENTS: Tuple[Tuple[int, float], ...] = ((60, 120.0), (180, 310.0), (300, 190.0))
#: downloads a day without press coverage
BASE_RATE = 2.0
#: a press burst's downloads decay with this time constant (days)
DECAY_DAYS = 6.0
#: an install is kept this many days on average
RETENTION_DAYS = 90.0
#: the share of installs that actually use the add-on
ACTIVE_FRACTION = 0.35


def adoption_series(n_days: int = 420, seed: int = 9) -> AdoptionSeries:
    """Model the Fig. 5 time series: a trickle plus three press spikes.

    Downloads: Poisson base rate plus exponentially decaying bursts after
    each press event.  Active users: installs with exponential retention
    times ``RETENTION_DAYS`` on average, of which ``ACTIVE_FRACTION``
    actually use the add-on.
    """
    rng = random.Random(seed)
    days = list(range(n_days))
    downloads: List[float] = []
    for day in days:
        rate = BASE_RATE
        for event_day, amplitude in PRESS_EVENTS:
            if day >= event_day:
                rate += amplitude * math.exp(-(day - event_day) / DECAY_DAYS)
        # Poisson draw via the inverse method is overkill; a jittered
        # rate reads the same on the figure
        downloads.append(max(0.0, rng.gauss(rate, math.sqrt(max(rate, 1.0)))))

    active: List[float] = []
    current = 0.0
    for day in days:
        churn = current / RETENTION_DAYS
        current = current + ACTIVE_FRACTION * downloads[day] - churn
        active.append(max(0.0, current))
    return AdoptionSeries(days=days, daily_downloads=downloads, active_users=active)
