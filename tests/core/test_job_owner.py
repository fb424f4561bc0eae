"""One owner record per job: the Coordinator's ``JobRecord.server_name``.

The Coordinator decides which Measurement server holds a job and moves
a dead server's pending jobs to the survivors; the server list counts
each server's pending jobs and the queue tier reads the owner from the
job's record.  These tests pin the cases where a second copy of the
owner went stale: a queued job failed over while it waits in the
outbox, and a check whose page selection fails before it is sent.
"""

import pytest

from repro.core.errors import PriceSelectionError
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.obs import Telemetry
from repro.workloads.stores import build_named_stores, uniform_store_specs

from .conftest import SMALL_IPC_SITES


def _queued_outbox():
    """Two checks queued, one per server, then ``ms-0`` fails over.

    Round robin puts the first check on ``ms-0`` and the second on
    ``ms-1``; the failure moves the first to ``ms-1`` while both still
    wait in the outbox.
    """
    world = SheriffWorld.create(seed=71)
    stores = build_named_stores(world, uniform_store_specs(3, seed=74))
    sheriff = PriceSheriff(
        world,
        n_measurement_servers=2,
        ipc_sites=SMALL_IPC_SITES,
        job_queue=True,
        dispatch_policy="round_robin",
        queue_steal_threshold=None,
    )
    for city in ("Madrid", "Barcelona"):
        sheriff.install_addon(world.make_browser("ES", city))
    initiator = sheriff.install_addon(
        world.make_browser("ES", "Madrid"), serve_as_ppc=False
    )
    store = next(iter(stores.values()))
    urls = [store.product_url(p.product_id) for p in store.catalog.products]
    handles = [initiator.submit_price_check(url) for url in urls[:2]]
    assert [h.server_name for h in handles] == ["ms-0", "ms-1"]
    sheriff.coordinator.handle_server_failure("ms-0")
    return world, sheriff, initiator, handles


def _assert_settled(sheriff, moved):
    coordinator = sheriff.coordinator
    assert coordinator.jobs[moved.job_id].attempts == 2
    assert all(r.jobs == 0 for r in sheriff.distributor.servers())
    assert all(r.completed for r in coordinator.jobs.values())


class TestQueuedFailoverKeepsNewOwner:
    def test_owner_stays_down(self):
        """The queue used to still name ``ms-0``, reassign the job again
        with ``ms-1`` excluded and dead-letter it."""
        _, sheriff, initiator, (moved, other) = _queued_outbox()
        result = initiator.collect(moved)
        assert result.rows
        # MeasurementServer.submit stamps the handle with its own name
        assert moved.server_name == "ms-1"
        assert initiator.collect(other).rows
        assert len(sheriff.job_queue.dead_letters) == 0
        _assert_settled(sheriff, moved)

    def test_owner_comes_back(self):
        """The job used to run on the revived ``ms-0`` while the
        Coordinator's record said ``ms-1``."""
        world, sheriff, initiator, (moved, other) = _queued_outbox()
        sheriff.distributor.heartbeat("ms-0", world.clock.now)
        assert initiator.collect(moved).rows
        assert initiator.collect(other).rows
        record = sheriff.coordinator.jobs[moved.job_id]
        assert moved.server_name == record.server_name == "ms-1"
        _assert_settled(sheriff, moved)


class TestSelectionFailure:
    def test_failed_selection_fails_the_job(self):
        """A check whose page selection fails is reported failed, not
        completed, and the selection error reaches the caller."""
        world = SheriffWorld.create(seed=7)
        stores = build_named_stores(world)
        telemetry = Telemetry()
        sheriff = PriceSheriff(
            world, n_measurement_servers=1, ipc_sites=SMALL_IPC_SITES,
            telemetry=telemetry,
        )
        addon = sheriff.install_addon(world.make_browser("ES", "Madrid"))

        def no_price(html):
            raise PriceSelectionError("no price element on the page")

        addon.build_selection = no_price
        store = next(iter(stores.values()))
        url = store.product_url(store.catalog.products[0].product_id)
        with pytest.raises(PriceSelectionError):
            addon.submit_price_check(url)

        coordinator = sheriff.coordinator
        (record,) = coordinator.jobs.values()
        assert (record.completed, record.failed) == (False, True)
        assert "no price element on the page" in record.failure_reason
        assert coordinator.jobs_failed == 1
        assert sheriff.distributor.server("ms-0").jobs == 0
        registry = telemetry.registry
        assert registry.get("sheriff_job_turnaround_seconds").total_count() == 0
        lifecycle = registry.get("sheriff_dispatch_jobs_total")
        assert lifecycle.value(event="completed") == 0
        assert lifecycle.value(event="failed") == 1
