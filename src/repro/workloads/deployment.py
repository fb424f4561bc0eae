"""The live deployment simulation (Sect. 6) and the Fig. 5 adoption model.

:class:`LiveDeployment` stands up the full system — content web, the
calibrated retailer roster plus the honest long tail, the 30-node IPC
fleet, four Measurement servers, a geo-distributed population — and
replays the deployment window: users issue price checks against stores
drawn by popularity, the clock advances between requests, and an
optional clustering round builds doppelgangers part-way through.

The paper's window runs August 2015 – September 2016 with 1265 users
and >5700 requests over 1994 domains; the default configuration is a
faithful but smaller instance (the same phenomena at ~1/8 scale) so the
whole evaluation can be regenerated in minutes —
:meth:`DeploymentConfig.paper_scale` gives the full-size parameters.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.addon import PriceCheckFailed, PriceSelectionError
from repro.core.coordinator import RequestRejected
from repro.core.errors import InvalidConfig
from repro.core.pricecheck import PriceCheckResult
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.net.events import SECONDS_PER_DAY
from repro.net.faults import CHAOS_PROFILES
from repro.obs import Telemetry
from repro.ops import HealReport, Supervisor, build_supervisor
from repro.workloads.alexa import ContentWeb
from repro.workloads.population import Population, PopulationConfig
from repro.workloads.stores import (
    StoreSpec,
    build_named_stores,
    extra_pd_store_specs,
    named_store_specs,
    uniform_store_specs,
)


@dataclass
class DeploymentConfig:
    """Knobs of one live-deployment run."""

    seed: int = 2017
    n_users: int = 150
    n_requests: int = 600
    n_extra_pd_stores: int = 20
    n_uniform_stores: int = 60
    n_content_domains: int = 120
    n_measurement_servers: int = 4
    duration_days: float = 390.0
    ipc_sites: Sequence[Tuple[str, str, float]] = DEFAULT_IPC_SITES
    enable_doppelgangers: bool = False
    population: Optional[PopulationConfig] = None
    #: extra checks of the flagship products users were famously curious
    #: about (the Phase One IQ280 case of Sect. 6.2)
    spotlight_checks: int = 3
    spotlight_products: Tuple[Tuple[str, str], ...] = (
        ("digitalrev.com", "digitalrev-iq280"),
    )
    #: named fault-injection profile from repro.net.faults.CHAOS_PROFILES
    #: (None = clean network) and the seed its RNG runs from
    chaos_profile: Optional[str] = None
    chaos_seed: int = 0
    #: minimum vantage points per price check before the job is failed
    quorum: int = 1
    #: price-check engine knobs (rows are identical whatever their
    #: value; these only shape the simulated timeline / cache behavior)
    max_fetch_workers: int = 8
    page_cache_ttl: float = 0.0
    #: enable the telemetry plane (metrics registry + sim-clock tracer);
    #: purely observational — rows are identical either way (tested)
    telemetry: bool = False
    #: storage engine behind the Database server: "memory" (default),
    #: "sqlite", or None to defer to the REPRO_DB_BACKEND environment
    #: variable.  Rows are byte-identical across engines (tested).
    db_backend: Optional[str] = None
    #: shard the Database layer by domain across this many servers
    #: (1 = the paper's single-server deployment)
    db_shards: int = 1
    #: run the self-healing operations layer (repro.ops): a Supervisor
    #: ticks once per request and heals failed components; supervision
    #: is RNG-free so rows are identical with it on or off (tested)
    supervised: bool = False
    #: persist the supervisor's audit trail as JSON lines here
    audit_path: Optional[str] = None
    #: put the queued measurement tier (repro.core.jobqueue) in front of
    #: the Measurement servers: admission control, work stealing, and
    #: dead-lettering.  Rows are identical queued or direct (tested).
    job_queue: bool = False
    #: admission limit of the queue tier's outbox (jobs beyond this are
    #: shed with a typed QueueSaturated carrying a retry-after hint)
    queue_depth: int = 256
    #: backlog imbalance (in jobs) that triggers a work steal between
    #: Measurement servers; None disables stealing entirely
    queue_steal_threshold: Optional[int] = 16
    #: messaging backend between components: "sim" (deterministic,
    #: in-process — the Tier-1 default) or "socket" (real TCP on the
    #: loopback, blocking sockets and one serving thread per
    #: connection; the row-identity property holds, tested)
    transport: str = "sim"

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

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; ``from_dict(cfg.to_dict())`` round-trips."""
        data: Dict[str, Any] = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "population" and value is not None:
                value = {
                    pf.name: _jsonify(getattr(value, pf.name))
                    for pf in dataclasses.fields(value)
                }
            else:
                value = _jsonify(value)
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeploymentConfig":
        """Build and validate a config from a plain dict (JSON-loaded).

        Raises :class:`~repro.core.errors.InvalidConfig` on unknown
        keys — including inside the nested ``population`` section — and
        on out-of-range values, each with a message naming the key.
        """
        if not isinstance(data, dict):
            raise InvalidConfig(
                f"deployment config must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise InvalidConfig(
                f"unknown deployment config key(s): {', '.join(unknown)}"
            )
        kwargs: Dict[str, Any] = dict(data)
        population = kwargs.get("population")
        if isinstance(population, dict):
            kwargs["population"] = _population_from_dict(population)
        elif population is not None and not isinstance(
            population, PopulationConfig
        ):
            raise InvalidConfig(
                "population must be a JSON object (or null)"
            )
        if "ipc_sites" in kwargs:
            kwargs["ipc_sites"] = _parse_ipc_sites(kwargs["ipc_sites"])
        if "spotlight_products" in kwargs:
            kwargs["spotlight_products"] = _parse_spotlight(
                kwargs["spotlight_products"]
            )
        config = cls(**kwargs)
        config.validate()
        return config

    def validate(self) -> "DeploymentConfig":
        """Range-check every knob; raises ``InvalidConfig`` on the first
        violation.  Returns self so call sites can chain."""
        for name, minimum in (
            ("n_users", 1),
            ("n_requests", 0),
            ("n_extra_pd_stores", 0),
            ("n_uniform_stores", 0),
            ("n_content_domains", 1),
            ("n_measurement_servers", 1),
            ("spotlight_checks", 0),
            ("quorum", 1),
            ("max_fetch_workers", 1),
            ("db_shards", 1),
            ("queue_depth", 1),
        ):
            _require_int(name, getattr(self, name), minimum)
        _require_int("seed", self.seed, None)
        _require_int("chaos_seed", self.chaos_seed, None)
        if not isinstance(self.duration_days, (int, float)) or isinstance(
            self.duration_days, bool
        ) or self.duration_days <= 0:
            raise InvalidConfig(
                f"duration_days must be a positive number, got "
                f"{self.duration_days!r}"
            )
        if not isinstance(self.page_cache_ttl, (int, float)) or isinstance(
            self.page_cache_ttl, bool
        ) or self.page_cache_ttl < 0:
            raise InvalidConfig(
                f"page_cache_ttl must be >= 0, got {self.page_cache_ttl!r}"
            )
        for name in (
            "enable_doppelgangers", "telemetry", "supervised", "job_queue",
        ):
            if not isinstance(getattr(self, name), bool):
                raise InvalidConfig(
                    f"{name} must be a boolean, got {getattr(self, name)!r}"
                )
        if self.chaos_profile is not None and (
            self.chaos_profile not in CHAOS_PROFILES
        ):
            raise InvalidConfig(
                f"chaos_profile must be one of "
                f"{sorted(CHAOS_PROFILES)} or null, got "
                f"{self.chaos_profile!r}"
            )
        if self.transport not in ("sim", "socket"):
            raise InvalidConfig(
                f"transport must be 'sim' or 'socket', got "
                f"{self.transport!r}"
            )
        if self.db_backend not in (None, "memory", "sqlite"):
            raise InvalidConfig(
                f"db_backend must be 'memory', 'sqlite', or null, got "
                f"{self.db_backend!r}"
            )
        if self.audit_path is not None and not isinstance(
            self.audit_path, str
        ):
            raise InvalidConfig(
                f"audit_path must be a string or null, got "
                f"{self.audit_path!r}"
            )
        if self.queue_steal_threshold is not None:
            _require_int(
                "queue_steal_threshold", self.queue_steal_threshold, 1
            )
        return self


def _jsonify(value: Any) -> Any:
    """Tuples → lists so ``to_dict`` output survives a JSON round trip."""
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if isinstance(value, list):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def _require_int(name: str, value: Any, minimum: Optional[int]) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidConfig(f"{name} must be >= {minimum}, got {value}")


def _parse_ipc_sites(raw: Any) -> Tuple[Tuple[str, str, float], ...]:
    if not isinstance(raw, (list, tuple)):
        raise InvalidConfig(
            "ipc_sites must be a list of [country, city, weight]"
        )
    sites = []
    for entry in raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 3
            or not isinstance(entry[0], str)
            or not isinstance(entry[1], str)
            or not isinstance(entry[2], (int, float))
            or isinstance(entry[2], bool)
        ):
            raise InvalidConfig(
                f"ipc_sites entries must be [country, city, weight], "
                f"got {entry!r}"
            )
        sites.append((entry[0], entry[1], float(entry[2])))
    return tuple(sites)


def _parse_spotlight(raw: Any) -> Tuple[Tuple[str, str], ...]:
    if not isinstance(raw, (list, tuple)):
        raise InvalidConfig(
            "spotlight_products must be a list of [domain, product_id]"
        )
    products = []
    for entry in raw:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(part, str) for part in entry)
        ):
            raise InvalidConfig(
                f"spotlight_products entries must be [domain, product_id], "
                f"got {entry!r}"
            )
        products.append((entry[0], entry[1]))
    return tuple(products)


def _population_from_dict(data: Dict[str, Any]) -> PopulationConfig:
    known = {f.name for f in dataclasses.fields(PopulationConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise InvalidConfig(
            f"unknown population config key(s): {', '.join(unknown)}"
        )
    kwargs: Dict[str, Any] = dict(data)
    if "history_visits" in kwargs:
        visits = kwargs["history_visits"]
        if (
            not isinstance(visits, (list, tuple))
            or len(visits) != 2
            or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in visits
            )
        ):
            raise InvalidConfig(
                f"population.history_visits must be [low, high], got {visits!r}"
            )
        kwargs["history_visits"] = (visits[0], visits[1])
    if "login_domains" in kwargs:
        domains = kwargs["login_domains"]
        if not isinstance(domains, (list, tuple)) or not all(
            isinstance(d, str) for d in domains
        ):
            raise InvalidConfig(
                f"population.login_domains must be a list of domains, "
                f"got {domains!r}"
            )
        kwargs["login_domains"] = tuple(domains)
    for name in ("n_users", "seed", "n_personas", "persona_domains_each",
                 "persona_pool_top", "n_personal_domains"):
        if name in kwargs:
            _require_int(f"population.{name}", kwargs[name],
                         1 if name == "n_users" else None)
    for name in ("donate_fraction", "login_fraction"):
        if name in kwargs:
            value = kwargs[name]
            if not isinstance(value, (int, float)) or isinstance(
                value, bool
            ) or not 0.0 <= value <= 1.0:
                raise InvalidConfig(
                    f"population.{name} must be in [0, 1], got {value!r}"
                )
    return PopulationConfig(**kwargs)


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
    def n_products_checked(self) -> int:
        return len({r.url for r in self.results})

    @property
    def n_responses(self) -> int:
        return sum(len(r.rows) for r in self.results)

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

    def results_for_domain(self, domain: str) -> List[PriceCheckResult]:
        return [r for r in self.results if r.domain == domain]


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
        self.sheriff = PriceSheriff(
            self.world,
            n_measurement_servers=cfg.n_measurement_servers,
            ipc_sites=cfg.ipc_sites,
            chaos_profile=cfg.chaos_profile,
            chaos_seed=cfg.chaos_seed,
            quorum=cfg.quorum,
            max_fetch_workers=cfg.max_fetch_workers,
            page_cache_ttl=cfg.page_cache_ttl,
            telemetry=Telemetry() if cfg.telemetry else None,
            db_backend=cfg.db_backend,
            db_shards=cfg.db_shards,
            job_queue=cfg.job_queue,
            queue_depth=cfg.queue_depth,
            queue_steal_threshold=cfg.queue_steal_threshold,
            transport=cfg.transport,
        )
        self.population = Population(
            self.sheriff, self.content_web,
            cfg.population if cfg.population is not None
            else PopulationConfig(n_users=cfg.n_users, seed=cfg.seed + 4),
        )
        self._store_weights = [s.popularity for s in self.specs]
        #: the self-healing layer — built only when asked for; its ticks
        #: are RNG-free, so rows match an unsupervised run exactly
        self.supervisor: Optional[Supervisor] = (
            build_supervisor(self.sheriff, audit_path=cfg.audit_path)
            if cfg.supervised
            else None
        )

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

        for _ in range(cfg.n_requests):
            self.world.clock.advance(gap_seconds * self._rng.uniform(0.5, 1.5))
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
                self.world.clock.advance(gap_seconds * self._rng.uniform(0.5, 1.5))
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

        if cfg.enable_doppelgangers:
            reference = self.content_web.alexa_top(
                min(50, len(self.content_web.domains))
            )
            self.sheriff.run_doppelganger_clustering(reference, max_iterations=4)

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

    @property
    def total_downloads(self) -> float:
        return sum(self.daily_downloads)

    def spike_days(self, threshold_factor: float = 5.0) -> List[int]:
        """Days whose downloads exceed ``threshold_factor`` × median."""
        ordered = sorted(self.daily_downloads)
        median = ordered[len(ordered) // 2]
        floor = max(1.0, median) * threshold_factor
        return [d for d, v in zip(self.days, self.daily_downloads) if v > floor]


#: (day, amplitude) of the three press events the paper describes —
#: articles in the popular press and the Swiss national TV documentary.
PRESS_EVENTS: Tuple[Tuple[int, float], ...] = ((60, 120.0), (180, 310.0), (300, 190.0))


def adoption_series(
    n_days: int = 420,
    seed: int = 9,
    base_rate: float = 2.0,
    press_events: Sequence[Tuple[int, float]] = PRESS_EVENTS,
    decay_days: float = 6.0,
    retention_days: float = 90.0,
    active_fraction: float = 0.35,
) -> AdoptionSeries:
    """Model the Fig. 5 time series: a trickle plus three press spikes.

    Downloads: Poisson base rate plus exponentially decaying bursts after
    each press event.  Active users: installs with exponential retention
    times ``retention_days`` on average, of which ``active_fraction``
    actually use the add-on.
    """
    rng = random.Random(seed)
    days = list(range(n_days))
    downloads: List[float] = []
    for day in days:
        rate = base_rate
        for event_day, amplitude in press_events:
            if day >= event_day:
                rate += amplitude * math.exp(-(day - event_day) / decay_days)
        # Poisson draw via the inverse method is overkill; a jittered
        # rate reads the same on the figure
        downloads.append(max(0.0, rng.gauss(rate, math.sqrt(max(rate, 1.0)))))

    active: List[float] = []
    current = 0.0
    for day in days:
        churn = current / retention_days
        current = current + active_fraction * downloads[day] - churn
        active.append(max(0.0, current))
    return AdoptionSeries(days=days, daily_downloads=downloads, active_users=active)
