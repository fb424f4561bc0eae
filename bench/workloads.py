"""The five workloads.

Each drives the system through public entry points only and is sized
by a nominal rate (units per reference second), so the driver's
``--seconds`` fixes every op count exactly: counts, digests and count
metrics repeat bit for bit from the same seed.  All are closed loops —
the next request leaves only when the previous result page is back.

A *unit* is what the worker times in one go; it completes
``ops_per_unit`` user-visible operations (8 for a ``burst_shared``
wave, 1 elsewhere).  ``prepare`` and ``check`` run outside the timed
region: input generation and output checking are not the system's cost.

``repro`` is imported inside ``build`` so that importing this module
costs nothing and the set-up metric sees the imports.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Tuple

#: requests land this far apart on the sim clock in the live-mix shape
#: (the Sect. 6 window: 390 days over 600 requests), so no page, cache
#: entry or price tick is shared between two checks
LIVE_GAP_SECONDS = 390.0 * 86400.0 / 600.0


class Workload:
    """Base: sizing, the digest and the yield bookkeeping."""

    name = ""
    #: units per reference second; ``round(rate * seconds)`` units are timed
    rate = 1.0
    ops_per_unit = 1
    #: one group of ``cal_slices`` calibration slices every ``cal_every`` units
    cal_every = 1
    cal_slices = 3
    #: clean workloads must land every expected row
    clean = True
    #: the class of each timed unit, where a workload mixes several
    kinds: List[str] = []

    def __init__(self, seed: int, n_units: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.n_units = n_units
        self.n_warm = max(1, -(-n_units // 30))
        #: < 1 only under ``--smoke``: shrinks preloads along with op counts
        self.scale = scale
        self.reset_tally()

    def reset_tally(self) -> None:
        """Forget what the warm-up units fed into the digest and the yield."""
        self.digest = hashlib.sha256()
        self.rows_landed = 0
        self.rows_expected = 0

    # the worker calls these, in this order
    def build(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        """Untimed per-unit input work (index ``i`` counts warm-ups too)."""

    def unit(self, i: int) -> Any:
        raise NotImplementedError

    def check(self, i: int, out: Any) -> List[str]:
        """Verify one unit's output; returns the problems found."""
        raise NotImplementedError

    def raw_counters(self) -> Dict[str, float]:
        """Cumulative public counters; the worker diffs two snapshots."""
        return {}

    def layer_metrics(self, delta: Dict[str, float], n_ops: int) -> Dict[str, float]:
        """Count and ratio metrics from a counter delta over ``n_ops`` ops."""
        return {}

    def close(self) -> None:
        pass

    def _digest(self, *fields: Any) -> None:
        self.digest.update(repr(fields).encode("utf-8"))


def _ratio(hits: float, misses: float) -> float:
    total = hits + misses
    return hits / total if total else 0.0


class LiveMix(Workload):
    """Why: the Sect. 6 deployment shape, cold: render, parse, extract and
    diff-store are ~85 % of what a user waits for"""

    name = "live_mix"
    rate = 48.0
    #: DeploymentConfig fields this workload sets beyond the defaults
    config: Dict[str, Any] = {}
    #: how often a user re-clicks after an explicit failure page
    clicks = 1

    def build(self) -> None:
        from repro.core.addon import PriceCheckFailed, PriceSelectionError
        from repro.core.coordinator import RequestRejected
        from repro.core.detector import analyze_rows
        from repro.core.tagspath import EXTRACTION_STATS
        from repro.web.pricing import UniformPricing
        from repro.workloads.deployment import DeploymentConfig, LiveDeployment

        self._analyze = analyze_rows
        self._extraction = EXTRACTION_STATS
        self._click_errors = (RequestRejected, PriceSelectionError, PriceCheckFailed)
        cfg = DeploymentConfig(
            seed=self.seed, n_requests=0, spotlight_checks=0,
            transport="sim", db_backend="memory", **self.config,
        ).validate()
        self.dep = dep = LiveDeployment(cfg)
        dep.population.build()
        self.sheriff = dep.sheriff
        self.clock = dep.world.clock
        self.geodb = dep.world.geodb
        self.quorum = cfg.quorum
        self.honest = {
            domain: isinstance(store.pricing, UniformPricing)
            for domain, store in dep.stores.items()
        }
        self.rechecks = 0
        self._make_inputs(random.Random(self.seed + 11))

    def reset_tally(self) -> None:
        super().reset_tally()
        #: domain -> did any check of it report a price variation
        self.flagged: Dict[str, bool] = {}

    def _make_inputs(self, rng: random.Random) -> None:
        dep = self.dep
        weights = [spec.popularity for spec in dep.specs]
        self.inputs: List[Tuple[float, Any, str]] = []
        for _ in range(self.n_warm + self.n_units):
            gap = LIVE_GAP_SECONDS * rng.uniform(0.5, 1.5)
            addon = dep.population.pick_user(rng)
            spec = rng.choices(dep.specs, weights=weights, k=1)[0]
            store = dep.stores[spec.domain]
            product = store.catalog.sample(rng, 1)[0]
            self.inputs.append((gap, addon, store.product_url(product.product_id)))

    def prepare(self, i: int) -> None:
        self.clock.advance(self.inputs[i][0])

    def unit(self, i: int):
        _, addon, url = self.inputs[i]
        supervisor = self.dep.supervisor
        for click in range(self.clicks):
            try:
                result = addon.check_price(url)
                return result, self._analyze(result.rows, self.geodb)
            except self._click_errors:
                if click + 1 == self.clicks:
                    raise
                self.rechecks += 1
                self.clock.advance(30.0)  # the user reads the error, clicks again
            finally:
                if supervisor is not None:
                    supervisor.tick()

    def check(self, i: int, out) -> List[str]:
        result, report = out
        return self._check_result(result, report)

    def _check_result(self, result, report) -> List[str]:
        problems = []
        rows = result.rows
        self.rows_landed += len(rows)
        self.rows_expected += result.vantage_expected
        if not any(row.kind == "You" for row in rows):
            problems.append(f"{result.job_id}: no 'You' row")
        if len(rows) < self.quorum:
            problems.append(f"{result.job_id}: {len(rows)} rows < quorum {self.quorum}")
        if self.clean and len(rows) != result.vantage_expected:
            problems.append(
                f"{result.job_id}: {len(rows)} rows, expected {result.vantage_expected}")
        for row in rows:
            self._digest(result.job_id, row.proxy_id, row.original_text, row.amount_eur)
        if report.classification != "none":
            self.flagged[result.domain] = True
        else:
            self.flagged.setdefault(result.domain, False)
        return problems

    def raw_counters(self) -> Dict[str, float]:
        sheriff = self.sheriff
        stats = sheriff.measurement_stats()
        counters = {
            "cache_hits": sheriff.engine.cache.hits,
            "cache_misses": sheriff.engine.cache.misses,
            "memo_hits": self._extraction.memo_hits,
            "pages_parsed": self._extraction.pages_parsed,
            "ipc_retries": stats.ipc_retries,
            "failovers": sheriff.coordinator.failovers,
            "batched_writes": sheriff.db.batched_writes,
            "stored_chars": sheriff.diffstore.stored_chars(),
            "rechecks": self.rechecks,
            "rows": self.rows_landed,
        }
        if sheriff.job_queue is not None:
            queue = sheriff.job_queue.stats()
            counters["queue_steals"] = sum(queue["steals"].values())
            counters["queue_shed"] = queue["shed"]
        if self.dep.supervisor is not None:
            counters["restarts"] = self.dep.supervisor.status()["restarts"]
        return counters

    def layer_metrics(self, delta: Dict[str, float], n_ops: int) -> Dict[str, float]:
        checked = len(self.flagged)
        agree = sum(
            1 for domain, flagged in self.flagged.items()
            if flagged != self.honest[domain]
        )
        queue = self.sheriff.job_queue
        return {
            "core.engine.page_cache_hit_ratio": _ratio(
                delta["cache_hits"], delta["cache_misses"]),
            "core.tagspath.memo_hit_ratio": _ratio(
                delta["memo_hits"], delta["pages_parsed"]),
            "core.tagspath.pages_parsed_per_op": delta["pages_parsed"] / n_ops,
            "core.measurement.rows_per_op": delta["rows"] / n_ops,
            "clients.ipc.retries_per_op": delta["ipc_retries"] / n_ops,
            "core.coordinator.failovers": delta["failovers"],
            "core.jobqueue.max_depth_seen": (
                queue.stats()["max_depth_seen"] if queue is not None else 0),
            "core.jobqueue.steals": delta.get("queue_steals", 0),
            "core.jobqueue.shed": delta.get("queue_shed", 0),
            "core.database.batched_writes_per_op": delta["batched_writes"] / n_ops,
            "core.diffstorage.stored_chars_per_op": delta["stored_chars"] / n_ops,
            "core.addon.rechecks_per_op": delta["rechecks"] / n_ops,
            "ops.supervisor.restarts": delta.get("restarts", 0),
            "core.detector.truth_agreement": agree / checked if checked else 0.0,
            "storage.shard_skew": 1.0,
        }

    def close(self) -> None:
        self.sheriff.shutdown()


class BurstShared(LiveMix):
    """Why: waves of 8 users checking the same hot product: the page cache,
    job queue, extraction memo and diff store carry it, web.store hardly
    runs"""

    name = "burst_shared"
    rate = 10.0  # waves
    ops_per_unit = 8
    config = {"job_queue": True, "page_cache_ttl": 30.0, "max_fetch_workers": 16}
    N_HOT = 4
    WAVE_GAP_SECONDS = 3600.0

    def _make_inputs(self, rng: random.Random) -> None:
        # The products in the press are the same whoever reads about them:
        # the first listing of the four most popular named retailers, so
        # the seed decides who joins each wave, not which pages are hot.
        dep = self.dep
        named = dep.specs[:len(dep.specs) - dep.config.n_extra_pd_stores
                          - dep.config.n_uniform_stores]
        hot = []
        for spec in sorted(named, key=lambda s: -s.popularity)[:self.N_HOT]:
            store = dep.stores[spec.domain]
            hot.append(store.product_url(store.catalog.products[0].product_id))
        self.inputs = [
            (self.WAVE_GAP_SECONDS,
             rng.sample(dep.population.addons, self.ops_per_unit),
             hot[i % self.N_HOT])
            for i in range(self.n_warm + self.n_units)
        ]

    def unit(self, i: int):
        _, users, url = self.inputs[i]
        pending = [(addon, addon.submit_price_check(url)) for addon in users]
        results = [addon.collect(check) for addon, check in pending]
        return [(r, self._analyze(r.rows, self.geodb)) for r in results]

    def check(self, i: int, out) -> List[str]:
        problems = []
        if len(out) != self.ops_per_unit:
            problems.append(f"wave {i}: {len(out)} results")
        for result, report in out:
            problems.extend(self._check_result(result, report))
        return problems


class ChaosSupervised(LiveMix):
    """Why: the live_mix op under chaos_monkey with a supervisor tick per
    request: retries, failover and healing, where a fast-path gain can
    cost rows"""

    name = "chaos_supervised"
    rate = 44.0
    clean = False
    clicks = 3
    config = {"chaos_profile": "chaos_monkey", "chaos_seed": 3,
              "quorum": 8, "supervised": True}


class ReportRW(Workload):
    """Why: 80/20 report reads and job writes over a loopback socket to a
    4-shard sqlite database: the only place protocol, transport and
    storage dominate"""

    name = "report_rw"
    rate = 1000.0
    cal_every = 20
    cal_slices = 1
    PRELOAD_JOBS = 2000
    ROWS_PER_JOB = 36
    READ_SHARE = 0.8
    N_DOMAINS = 80

    def build(self) -> None:
        from repro.core.database import DatabaseClient, database_rpc_handler
        from repro.net.socket_transport import SocketTransport
        from repro.storage import ShardedDatabase

        self.db = ShardedDatabase(n_shards=4, backend="sqlite")
        self.transport = SocketTransport()
        self.transport.bind("db", database_rpc_handler(self.db))
        self.transport.register_client("bench")
        self.client = DatabaseClient(self.transport, src="bench", dst="db")
        n_jobs = max(4, round(self.PRELOAD_JOBS * self.scale))
        for job in range(n_jobs):
            self.db.sp_record_request(**self._request(job))
            self.db.sp_record_responses(f"job-{job}", self._rows(job))
        rng = random.Random(self.seed + 13)
        self.inputs: List[Tuple[str, int]] = []
        for _ in range(self.n_warm + self.n_units):
            if rng.random() < self.READ_SHARE:
                self.inputs.append(("read", rng.randrange(n_jobs)))
            else:
                self.inputs.append(("write", n_jobs))
                n_jobs += 1
        self.kinds = [kind for kind, _ in self.inputs[self.n_warm:]]
        self._pending_rows: List[Dict[str, Any]] = []

    def _request(self, job: int) -> Dict[str, Any]:
        domain = f"shop-{job % self.N_DOMAINS:03d}.example"
        return dict(job_id=f"job-{job}", user_id=f"user-{job % 150}",
                    url=f"http://{domain}/product/p-{job % 7}",
                    domain=domain, time=float(job))

    def _rows(self, job: int) -> List[Dict[str, Any]]:
        rng = random.Random(f"{self.seed}:{job}")
        rows = []
        for i in range(self.ROWS_PER_JOB):
            amount = rng.randint(100, 999999) / 100.0
            rows.append(dict(
                proxy_id=f"ipc-{i:02d}", kind="IPC", country="ES", region="Spain",
                city="Madrid", original_text=f"EUR{amount:.2f}", amount=amount,
                currency="EUR", amount_eur=amount, low_confidence=False,
                used_doppelganger=False, error=None, time=float(job),
            ))
        return rows

    def prepare(self, i: int) -> None:
        kind, job = self.inputs[i]
        if kind == "write":
            self._pending_rows = self._rows(job)

    def unit(self, i: int):
        kind, job = self.inputs[i]
        if kind == "read":
            return self.client.sp_responses_for_job(f"job-{job}")
        self.client.sp_record_request(**self._request(job))
        return self.client.sp_record_responses(f"job-{job}", self._pending_rows)

    def check(self, i: int, out) -> List[str]:
        kind, job = self.inputs[i]
        self.rows_expected += self.ROWS_PER_JOB
        self.rows_landed += len(out)
        if kind == "write":
            if len(out) != self.ROWS_PER_JOB:
                return [f"write job-{job}: {len(out)} ids"]
            return []
        expected = self._rows(job)
        if len(out) != len(expected):
            return [f"read job-{job}: {len(out)} rows"]
        for got, want in zip(out, expected):
            if any(got.get(key) != value for key, value in want.items()):
                return [f"read job-{job}: row {want['proxy_id']} differs"]
            self._digest(job, got["proxy_id"], got["original_text"], got["amount_eur"])
        return []

    def raw_counters(self) -> Dict[str, float]:
        return {"batched_writes": self.db.batched_writes, "rows": self.rows_landed}

    def layer_metrics(self, delta: Dict[str, float], n_ops: int) -> Dict[str, float]:
        counts = list(self.db.shard_row_counts().values())
        return {
            "core.measurement.rows_per_op": delta["rows"] / n_ops,
            "core.database.batched_writes_per_op": delta["batched_writes"] / n_ops,
            "storage.shard_skew": max(counts) / (sum(counts) / len(counts)),
        }

    def close(self) -> None:
        self.transport.close()


class ClusterRound(Workload):
    """Why: one secure k-means doppelganger round: the crypto path every
    check workload is blind to"""

    name = "cluster_round"
    rate = 4.0
    N_USERS = 48
    N_REFERENCE = 16
    K = 4

    def build(self) -> None:
        from repro.core.sheriff import PriceSheriff, SheriffWorld
        from repro.crypto import BENCH_GROUP_256
        from repro.workloads.alexa import ContentWeb
        from repro.workloads.population import Population, PopulationConfig

        world = SheriffWorld.create(seed=self.seed)
        web = ContentWeb(world.internet, world.ecosystem, n_domains=120,
                         seed=self.seed + 1)
        self.sheriff = PriceSheriff(world, crypto_group=BENCH_GROUP_256)
        Population(self.sheriff, web, PopulationConfig(
            n_users=self.N_USERS, seed=self.seed + 4)).build()
        self.reference = web.alexa_top(self.N_REFERENCE)
        self.consenting = [a.peer_id for a in self.sheriff.addons if a.consent]

    def unit(self, i: int):
        return self.sheriff.run_doppelganger_clustering(
            self.reference, k=self.K, max_iterations=3)

    def check(self, i: int, out) -> List[str]:
        self.rows_expected += len(self.consenting)
        problems = []
        for peer_id in self.consenting:
            cluster = out.mapping.get(peer_id)
            if cluster is None or not 0 <= cluster < self.K:
                problems.append(f"round {i}: {peer_id} in cluster {cluster!r}")
            else:
                self.rows_landed += 1
            self._digest(i, peer_id, cluster)
        return problems

    def raw_counters(self) -> Dict[str, float]:
        return {"rows": self.rows_landed}

    def layer_metrics(self, delta: Dict[str, float], n_ops: int) -> Dict[str, float]:
        return {"core.measurement.rows_per_op": delta["rows"] / n_ops}

    def close(self) -> None:
        self.sheriff.shutdown()


def obs_plane_overhead(seed: int, n_units: int) -> float:
    """``obs.plane_overhead_frac``: live_mix with ``telemetry=True`` over off, minus 1.

    Both deployments live in this process and take the same inputs in
    alternating order, so the host's speed drift cancels.  They share
    the process-wide extraction memo, which is cleared before every op
    so that neither side finds the other's pages in it.
    """
    from time import perf_counter

    from repro.core.tagspath import clear_extraction_memo

    telemetry_on = type("LiveMixTelemetry", (LiveMix,), {"config": {"telemetry": True}})
    sides = [LiveMix(seed, n_units), telemetry_on(seed, n_units)]
    spent = [0.0, 0.0]
    try:
        for wl in sides:
            wl.build()
        for i in range(sides[0].n_warm + n_units):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                wl = sides[side]
                wl.prepare(i)
                clear_extraction_memo()
                t0 = perf_counter()
                wl.unit(i)
                if i >= wl.n_warm:
                    spent[side] += perf_counter() - t0
    finally:
        for wl in sides:
            wl.close()
    return spent[1] / spent[0] - 1.0


WORKLOADS = {
    cls.name: cls
    for cls in (LiveMix, BurstShared, ChaosSupervised, ReportRW, ClusterRound)
}
