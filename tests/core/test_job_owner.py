"""One owner record per job: the Coordinator's ``JobRecord.server_name``.

The Coordinator decides which Measurement server holds a job and moves
a dead server's pending jobs to the survivors; a server's load is the
number of unresolved records naming it, and the queue tier reads the
owner from the job's record.  These tests pin the cases where a second
copy of the owner went stale: a queued job failed over while it waits
in the outbox, and a check whose page selection fails before it is
sent.  The Coordinator is also the one place a failover is decided: a
queued job it failed leaves the outbox with its handle failed.
"""

import pytest

from repro.core.errors import PriceCheckFailed, PriceSelectionError
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.obs import Telemetry
from repro.workloads.stores import build_named_stores, uniform_store_specs

from .conftest import SMALL_IPC_SITES


def _queued_deployment():
    """Two queued servers, a steal threshold no backlog here
    reaches, two ES peers and one initiator; returns the world, the
    sheriff, the initiator and a store's product URLs."""
    world = SheriffWorld.create(seed=71)
    stores = build_named_stores(world, uniform_store_specs(3, seed=74))
    sheriff = PriceSheriff(
        world,
        n_measurement_servers=2,
        ipc_sites=SMALL_IPC_SITES,
        job_queue=True,
        queue_steal_threshold=1_000,
    )
    for city in ("Madrid", "Barcelona"):
        sheriff.install_addon(world.make_browser("ES", city))
    initiator = sheriff.install_addon(
        world.make_browser("ES", "Madrid"), serve_as_ppc=False
    )
    store = next(iter(stores.values()))
    urls = [store.product_url(p.product_id) for p in store.catalog.products]
    return world, sheriff, initiator, urls


def _queued_outbox():
    """Two checks queued, one per server, then ``ms-0`` fails over.

    Least jobs puts the first check on ``ms-0`` and the second on the
    less loaded ``ms-1``; the failure moves the first to ``ms-1`` while both still
    wait in the outbox.
    """
    world, sheriff, initiator, urls = _queued_deployment()
    handles = [initiator.submit_price_check(url) for url in urls[:2]]
    assert [h.server_name for h in handles] == ["ms-0", "ms-1"]
    sheriff.coordinator.handle_server_failure("ms-0")
    return world, sheriff, initiator, handles


def _assert_settled(sheriff, moved):
    coordinator = sheriff.coordinator
    assert coordinator.jobs[moved.job_id].attempts == 2
    assert coordinator.load() == {}
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
        assert sheriff.job_queue.dead_lettered == 0
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


class TestQueuedJobFailedByTheCoordinator:
    """A queued job whose servers all failed over is failed by the
    Coordinator while it waits; the tier fails its handle instead of
    dispatching it, whatever its server does next."""

    @staticmethod
    def _failed_in_outbox():
        world, sheriff, initiator, urls = _queued_deployment()
        handle = initiator.submit_price_check(urls[0])
        assert handle.server_name == "ms-0"
        for name in ("ms-1", "ms-0"):
            sheriff.coordinator.handle_server_failure(name)
        record = sheriff.coordinator.jobs[handle.job_id]
        assert record.failed
        assert record.failure_reason == "no online Measurement server"
        return world, sheriff, initiator, urls, handle

    def test_owner_stays_down(self):
        """The failed job used to wedge the outbox: every later collect
        raised ``UnknownJob`` ("already resolved")."""
        world, sheriff, initiator, urls, failed = self._failed_in_outbox()
        sheriff.distributor.heartbeat("ms-1", world.clock.now)
        later = initiator.submit_price_check(urls[1])
        with pytest.raises(PriceCheckFailed, match="no online Measurement server"):
            initiator.collect(failed)
        assert initiator.collect(later).rows
        tier = sheriff.job_queue
        assert tier.depth == 0
        assert tier.dead_lettered == 1
        assert sheriff.db.sp_responses_for_job(failed.job_id) == []
        assert sheriff.coordinator.jobs[later.job_id].completed

    def test_owner_comes_back(self):
        """The failed job used to run on the revived ``ms-0`` and store
        its rows while its record said ``failed``."""
        world, sheriff, initiator, _, failed = self._failed_in_outbox()
        sheriff.distributor.heartbeat("ms-0", world.clock.now)
        with pytest.raises(PriceCheckFailed, match="no online Measurement server"):
            initiator.collect(failed)
        assert sheriff.db.sp_responses_for_job(failed.job_id) == []
        assert sheriff.job_queue.depth == 0
        assert sheriff.coordinator.load() == {}


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
        assert coordinator.jobs_on("ms-0") == []
        registry = telemetry.registry
        assert registry.get("sheriff_job_turnaround_seconds").total_count() == 0
        lifecycle = registry.get("sheriff_dispatch_jobs_total")
        assert lifecycle.value(event="completed") == 0
        assert lifecycle.value(event="failed") == 1
