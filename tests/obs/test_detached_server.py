"""A detached Measurement server leaves the live views with it.

The gauges describe the deployment as it is: once
``remove_measurement_server`` returns, no gauge family has a series for
the server, and the engine holds no worker pool for it.  Counters and
histograms keep the work the server did.
"""

from repro.core.sheriff import PriceSheriff
from repro.obs import Telemetry

from tests.core.conftest import SMALL_IPC_SITES
from tests.obs.test_telemetry_determinism import _build_world


def _gauge_series(registry, server):
    """``family{labels}`` of every gauge series labelled ``server``."""
    lines = []
    for metric in registry.metrics():
        if metric.kind == "gauge":
            metric.expose(lines)
    return [line.split(" ")[0] for line in lines if f'server="{server}"' in line]


def test_a_detached_server_leaves_every_gauge_and_its_pool_goes():
    world = _build_world(seed=7)
    sheriff = PriceSheriff(
        world, n_measurement_servers=1, ipc_sites=SMALL_IPC_SITES,
        job_queue=True, telemetry=Telemetry(),
    )
    try:
        sheriff.add_measurement_server("ms-9")
        user = sheriff.install_addon(world.make_browser("ES", "Madrid"))
        sheriff.install_addon(world.make_browser("ES", "Barcelona"))
        store = world.internet.site("uniform.example")
        for product in store.catalog.products[:3]:
            world.clock.advance(60.0)
            user.check_price(store.product_url(product.product_id))
        registry = sheriff.telemetry.registry
        old_pool = sheriff.engine.pool_for("ms-9")
        assert old_pool.tasks_run > 0
        assert _gauge_series(registry, "ms-9")

        sheriff.remove_measurement_server("ms-9")

        assert _gauge_series(registry, "ms-9") == []
        assert _gauge_series(registry, "ms-0")
        fresh = sheriff.engine.pool_for("ms-9")
        assert fresh is not old_pool
        assert fresh.tasks_run == 0
    finally:
        sheriff.shutdown()
