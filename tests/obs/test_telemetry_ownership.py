"""A deployment's registry counts all of its own work and nothing else.

The extractor and the crypto tables are shared by every deployment in
the process and count their work in plain ints; the component that ran
the work adds the growth to its own telemetry.  So a deployment built
with ``Telemetry()`` records every phase and the exponentiation work of
its clustering rounds, and two deployments in one process never see
each other's extraction work.
"""

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.core.tagspath import EXTRACTION_STATS
from repro.obs import Telemetry

from tests.core.conftest import SMALL_IPC_SITES
from tests.obs.test_telemetry_determinism import _build_world

EXTRACT_FAMILIES = {
    name: f"sheriff_extract_{name}_total" for name in EXTRACTION_STATS.__slots__
}


class _Deployment:
    """A small deployment and a way to run price checks on it."""

    def __init__(self, telemetry):
        self.world = _build_world(seed=7)
        self.sheriff = PriceSheriff(
            self.world, n_measurement_servers=1, ipc_sites=SMALL_IPC_SITES,
            telemetry=telemetry,
        )
        self.user = self.sheriff.install_addon(self.world.make_browser("ES", "Madrid"))
        self.sheriff.install_addon(self.world.make_browser("ES", "Barcelona"))
        store = self.world.internet.site("uniform.example")
        self.urls = [store.product_url(p.product_id) for p in store.catalog.products]

    def check(self, n):
        for url in self.urls[:n]:
            self.world.clock.advance(60.0)
            self.user.check_price(url)

    def extract_counts(self):
        registry = self.sheriff.telemetry.registry
        return {
            name: registry.get(family).value()
            for name, family in EXTRACT_FAMILIES.items()
        }


def test_two_deployments_each_count_only_their_own_fan_outs():
    a = _Deployment(Telemetry())
    b = c = None
    try:
        a.check(1)
        a_counts = a.extract_counts()
        assert a_counts["pages_parsed"] + a_counts["memo_hits"] > 0
        b = _Deployment(Telemetry())
        c = _Deployment(telemetry=False)
        c.check(3)
        assert b.extract_counts() == dict.fromkeys(EXTRACT_FAMILIES, 0.0)
        assert a.extract_counts() == a_counts

        before = EXTRACTION_STATS.snapshot()
        b.check(1)
        grown = {
            name: EXTRACTION_STATS.snapshot()[name] - before[name]
            for name in EXTRACT_FAMILIES
        }
        assert b.extract_counts() == grown
        assert a.extract_counts() == a_counts
    finally:
        for deployment in (a, b, c):
            if deployment is not None:
                deployment.sheriff.shutdown()


def test_a_deployments_clustering_round_is_fully_recorded():
    world = SheriffWorld.create(seed=1)
    sheriff = PriceSheriff(
        world, n_measurement_servers=1, ipc_sites=[], telemetry=Telemetry()
    )
    for _ in range(6):
        sheriff.install_addon(world.make_browser("ES", "Madrid"))
    sheriff.run_doppelganger_clustering(
        ["news.example", "blog.example"], k=2, max_iterations=2
    )
    registry = sheriff.telemetry.registry
    phases = {
        phase for (phase,), _ in registry.get("sheriff_crypto_phase_seconds").series()
    }
    assert phases == {"mask", "distance", "unmask", "aggregate", "update"}
    for family in (
        "sheriff_crypto_fastexp_pows_total",
        "sheriff_crypto_batch_inversions_total",
        "sheriff_crypto_dlog_calls_total",
        "sheriff_crypto_fastexp_tables",
        "sheriff_crypto_dlog_cache",
    ):
        assert registry.get(family).total > 0, family
    # the tables a round builds may already be cached by an earlier one
    for family in (
        "sheriff_crypto_fastexp_table_builds_total",
        "sheriff_crypto_dlog_cache_evictions_total",
    ):
        assert registry.get(family) is not None, family
