"""Ablations of the design choices DESIGN.md calls out.

1. **Dispatch policy** — the paper rejects round robin because it
   "would introduce long pending queues to Measurement servers with
   lower specifications" (Sect. 3.4).  We run the queueing model over a
   heterogeneous fleet under both policies.
2. **Doppelgangers on/off** — how much of a PPC user's server-side
   profile gets polluted by tunneled visits with and without the
   doppelganger budget (Sect. 3.6.2).
3. **Secure vs plaintext k-means** — same clustering outcome, measured
   cost of privacy (Sect. 3.8).
4. **DiffStorage** — storage saved by keeping one full page per job and
   diffs for the remaining ~33 proxy responses (App. 10.5).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.analysis.reports import format_table
from repro.crypto.group import TEST_GROUP
from repro.crypto.secure_kmeans import run_secure_kmeans
from repro.experiments import registry
from repro.profiles.kmeans import lloyd_kmeans
from repro.workloads.perfmodel import PerfRow, PerformanceModel


# -- 1. dispatch policy -------------------------------------------------------

@dataclass
class DispatchAblationResult:
    least_jobs: PerfRow
    round_robin: PerfRow

    def improvement(self) -> float:
        """Response-time advantage of least-jobs over round robin."""
        return self.round_robin.response_minutes / self.least_jobs.response_minutes

    def render(self) -> str:
        rows = [
            ("least_jobs", round(self.least_jobs.response_minutes, 2),
             int(self.least_jobs.max_daily_requests)),
            ("round_robin", round(self.round_robin.response_minutes, 2),
             int(self.round_robin.max_daily_requests)),
        ]
        return format_table(
            rows,
            headers=("Policy", "Response (min)", "Max daily requests"),
            title="Ablation: dispatch policy over heterogeneous servers",
        )


def run_dispatch_ablation(scale: str = "default") -> DispatchAblationResult:
    sim_minutes = 45.0 if scale == "test" else 120.0
    speeds = [1.0, 1.0, 2.5, 3.0]  # two strong and two weak machines
    rows = {}
    for policy in ("least_jobs", "round_robin"):
        model = PerformanceModel(
            "new", n_clients=3, n_servers=4, streams_per_client=8,
            seed=17, policy=policy, server_speed_factors=speeds,
        )
        rows[policy] = model.run(sim_minutes=sim_minutes)
    return DispatchAblationResult(
        least_jobs=rows["least_jobs"], round_robin=rows["round_robin"]
    )


# -- 2. doppelgangers on/off ---------------------------------------------------

@dataclass
class DoppelgangerAblationResult:
    tunneled_requests: int
    polluting_visits_without: int
    polluting_visits_with: int

    def pollution_reduction(self) -> float:
        if self.polluting_visits_without == 0:
            return 0.0
        return 1.0 - self.polluting_visits_with / self.polluting_visits_without

    def render(self) -> str:
        rows = [
            ("without doppelgangers", self.polluting_visits_without),
            ("with doppelgangers", self.polluting_visits_with),
        ]
        return format_table(
            rows,
            headers=("Configuration",
                     f"Polluting visits / {self.tunneled_requests} tunneled"),
            title="Ablation: server-side profile pollution",
        )


def _pollution_run(use_doppelgangers: bool, n_tunneled: int, seed: int) -> int:
    """Count tunneled visits that landed on the real user's session."""
    from repro.core.sheriff import PriceSheriff, SheriffWorld
    from repro.web.catalog import make_catalog
    from repro.web.internet import ContentSite
    from repro.web.pricing import UniformPricing
    from repro.web.store import EStore

    world = SheriffWorld.create(seed=seed)
    catalog = make_catalog("shop.example", size=12, rng=random.Random(1))
    store = EStore(
        domain="shop.example", country_code="ES", catalog=catalog,
        pricing=UniformPricing(), geodb=world.geodb, rates=world.rates,
    )
    world.internet.register(store)
    world.internet.register(ContentSite("news.example"))
    sheriff = PriceSheriff(world, n_measurement_servers=1,
                           ipc_sites=(("ES", "Madrid", 1.0),))
    browser = world.make_browser("ES", "Madrid")
    addon = sheriff.install_addon(browser)
    # the user shops organically: 4 product views → budget of exactly 1
    for product in catalog.products[:4]:
        browser.visit(store.product_url(product.product_id))
    browser.visit("http://news.example/a")
    sid = browser.cookies.value("shop.example", "sid")
    organic_visits = sum(store.visits_for(sid).values())

    if use_doppelgangers:
        sheriff.run_doppelganger_clustering(
            ["news.example", "shop.example"], k=1, max_iterations=2,
        )

    handler = addon.peer_handler
    for i in range(n_tunneled):
        product = catalog.products[(4 + i) % len(catalog)]
        handler.serve_remote_request(store.product_url(product.product_id))
    return sum(store.visits_for(sid).values()) - organic_visits


#: remote page requests the ablation's peer serves after its organic visits
TUNNELED_REQUESTS = 8


def run_doppelganger_ablation(scale: str = "default") -> DoppelgangerAblationResult:
    without = _pollution_run(use_doppelgangers=False, n_tunneled=TUNNELED_REQUESTS,
                             seed=51)
    with_dopp = _pollution_run(use_doppelgangers=True, n_tunneled=TUNNELED_REQUESTS,
                               seed=51)
    return DoppelgangerAblationResult(
        tunneled_requests=TUNNELED_REQUESTS,
        polluting_visits_without=without,
        polluting_visits_with=with_dopp,
    )


# -- 3. secure vs plaintext k-means ---------------------------------------------

@dataclass
class SecureKMeansAblationResult:
    n_users: int
    m: int
    k: int
    secure_seconds: float
    plaintext_seconds: float
    identical_output: bool

    def overhead(self) -> float:
        if self.plaintext_seconds == 0:
            return float("inf")
        return self.secure_seconds / self.plaintext_seconds

    def render(self) -> str:
        rows = [
            ("plaintext", round(self.plaintext_seconds, 4)),
            ("privacy-preserving", round(self.secure_seconds, 4)),
        ]
        table = format_table(
            rows, headers=("Variant", "seconds"),
            title=(
                f"Ablation: cost of privacy (n={self.n_users}, m={self.m}, "
                f"k={self.k})"
            ),
        )
        return table + f"\nidentical clustering output: {self.identical_output}"


def run_secure_kmeans_ablation(scale: str = "default") -> SecureKMeansAblationResult:
    s = registry.scale(scale)
    n_users = min(s.kmeans_users, 40)
    m, k = 20, 4
    rng = random.Random(9)
    points = {
        f"u{i}": [rng.randint(0, 50) if rng.random() < 0.4 else 0
                  for _ in range(m)]
        for i in range(n_users)
    }
    initial = [points[f"u{i}"] for i in range(k)]

    started = time.perf_counter()
    secure = run_secure_kmeans(
        points, k=k, value_bound=50, group=TEST_GROUP,
        rng=random.Random(1), initial_centroids=initial,
        max_iterations=5, halt_threshold=0.0,
    )
    secure_seconds = time.perf_counter() - started

    started = time.perf_counter()
    plain = lloyd_kmeans(
        points, k=k, initial_centroids=initial,
        max_iterations=5, halt_threshold=0.0, quantize=True,
    )
    plaintext_seconds = time.perf_counter() - started

    identical = (
        secure.assignments == plain.assignments
        and secure.centroids == [[int(v) for v in c] for c in plain.centroids]
    )
    return SecureKMeansAblationResult(
        n_users=n_users, m=m, k=k,
        secure_seconds=secure_seconds,
        plaintext_seconds=plaintext_seconds,
        identical_output=identical,
    )


# -- 4. DiffStorage ----------------------------------------------------------------

@dataclass
class DiffStorageAblationResult:
    stored_chars: int
    naive_chars: int

    def savings(self) -> float:
        if self.naive_chars == 0:
            return 0.0
        return 1.0 - self.stored_chars / self.naive_chars

    def render(self) -> str:
        rows = [
            ("store every page verbatim", self.naive_chars),
            ("DiffStorage", self.stored_chars),
        ]
        table = format_table(
            rows, headers=("Strategy", "Characters stored"),
            title="Ablation: DiffStorage savings over the live dataset",
        )
        return table + f"\nsavings: {100 * self.savings():.1f}%"


def run_diffstorage_ablation(scale: str = "default") -> DiffStorageAblationResult:
    dataset = registry.live_dataset(scale)
    diffstore = dataset.sheriff.diffstore
    return DiffStorageAblationResult(
        stored_chars=diffstore.stored_chars(),
        naive_chars=diffstore.naive_chars_seen,
    )
