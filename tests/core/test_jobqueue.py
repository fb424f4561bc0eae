"""The queued measurement tier: admission, drain order, stealing, DLQ.

Builds sheriffs with ``job_queue=True`` and drives the tier through the
add-on exactly as clients do — submit enqueues, the first result
drains the whole outbox in admission order — then pins the failure
machinery: load shedding with an escalating ``retry_after``, an offline
owner reported to the Coordinator (whose failover spends the retry
budget), imbalance transfers outside it, and a queued job the
Coordinator failed leaving the outbox with ``PriceCheckFailed``.
"""

import pytest

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.errors import (
    PriceCheckFailed,
    QueueSaturated,
    UnknownJob,
)
from repro.core.measurement import PriceCheckJob
from repro.core.sheriff import PriceSheriff
from repro.obs import Telemetry
from repro.workloads.cell import CellConfig, build_cell

from .conftest import SMALL_IPC_SITES


def _queued_sheriff(world, **kwargs):
    kwargs.setdefault("n_measurement_servers", 2)
    kwargs.setdefault("ipc_sites", SMALL_IPC_SITES)
    kwargs.setdefault("job_queue", True)
    return PriceSheriff(world, **kwargs)


def _product_urls(world, domain="uniform.example"):
    store = world.internet.site(domain)
    return [store.product_url(p.product_id) for p in store.catalog.products]


def _addon(world, sheriff, city="Madrid"):
    return sheriff.install_addon(world.make_browser("ES", city))


def _journey_spans(sheriff, name):
    """The ``name`` journey spans of every job, in the order they were
    opened."""
    spans = [s for s in sheriff.telemetry.tracer.finished if s.name == name]
    return sorted(spans, key=lambda s: s.span_id)


class TestAdmissionAndDrain:
    def test_submit_enqueues_and_first_poll_drains_all(self, world):
        sheriff = _queued_sheriff(world)
        addon = _addon(world, sheriff)
        urls = _product_urls(world)
        wave = [addon.submit_price_check(url) for url in urls[:3]]
        tier = sheriff.job_queue
        assert tier.queue.depth == 3
        assert all(sheriff._job_entrypoint(h.server_name) is tier for h in wave)
        assert all(r in tier.queue and r.state == "pending" for r in wave)
        assert all(r.job is not None for r in wave)  # the payload waits with it

        first = tier.result(wave[0])
        assert tier.queue.depth == 0
        assert tier.dispatched_total == 3
        assert all(r.job is None for r in wave)  # dropped at dispatch
        assert first.rows
        for handle in wave[1:]:
            result = addon.collect(handle)
            assert result.rows

    def test_drain_follows_admission_order(self, world):
        sheriff = _queued_sheriff(world, telemetry=Telemetry())
        addon = _addon(world, sheriff)
        urls = _product_urls(world)
        wave = [addon.submit_price_check(url) for url in urls[:4]]
        tier = sheriff.job_queue
        tier.pump()
        dispatches = [s.trace_id for s in _journey_spans(sheriff, "dispatch")]
        assert dispatches == [h.job_id for h in wave]
        admissions = [s.trace_id for s in _journey_spans(sheriff, "admission")]
        assert admissions == dispatches

    def test_submit_without_ticket_is_rejected(self, world):
        sheriff = _queued_sheriff(world)
        job = PriceCheckJob(
            job_id="job-forged", url="http://uniform.example/product/p-1",
            tags_path="html>body", requested_currency="EUR",
            initiator_peer_id="peer-x", initiator_html="<html></html>",
            initiator_location=world.geodb.make_location("ES", "Madrid"),
            initiator_os="Linux", initiator_browser="Firefox",
        )
        with pytest.raises(UnknownJob, match="no Coordinator ticket"):
            sheriff.job_queue.submit(job)

    def test_finished_job_is_forgotten(self, world):
        sheriff = _queued_sheriff(world)
        addon = _addon(world, sheriff)
        handle = addon.submit_price_check(_product_urls(world)[0])
        addon.collect(handle)
        with pytest.raises(UnknownJob):
            sheriff.job_queue.result(handle)


class TestHandleDescribesTheJob:
    """The record ``submit_price_check`` returns is the job: it is the
    Coordinator's own record, and after ``collect`` it reads the same
    whether the check was queued or went straight to its server."""

    @pytest.mark.parametrize("job_queue", [True, False], ids=["queued", "direct"])
    def test_done_handle(self, world, job_queue):
        sheriff = _queued_sheriff(
            world, ipc_sites=SMALL_IPC_SITES[:3], job_queue=job_queue
        )
        addon = _addon(world, sheriff)
        record = addon.submit_price_check(_product_urls(world)[0])
        assert record is sheriff.coordinator.jobs[record.job_id]
        result = addon.collect(record)
        assert len(result.rows) == 4
        assert record.state == "completed"
        assert record.closed
        assert record.result is None and record.job is None  # dropped
        assert record.failure_reason is None

    @pytest.mark.parametrize("job_queue", [True, False], ids=["queued", "direct"])
    def test_failed_handle(self, world, job_queue):
        sheriff = _queued_sheriff(
            world, ipc_sites=SMALL_IPC_SITES[:3], job_queue=job_queue, quorum=10
        )
        addon = _addon(world, sheriff)
        record = addon.submit_price_check(_product_urls(world)[0])
        with pytest.raises(PriceCheckFailed) as exc:
            addon.collect(record)
        assert record.state == "failed"
        assert exc.value.job_id == record.job_id
        assert exc.value.reason == record.failure_reason == "quorum not met (4/10)"
        assert record.result is None and record.job is None


class TestLoadShedding:
    def test_shed_beyond_depth_with_escalating_retry_after(self, world):
        sheriff = _queued_sheriff(world, queue_depth=2)
        addon = _addon(world, sheriff)
        urls = _product_urls(world)
        wave = [addon.submit_price_check(url) for url in urls[:2]]
        tier = sheriff.job_queue

        with pytest.raises(QueueSaturated) as first:
            addon.submit_price_check(urls[2])
        with pytest.raises(QueueSaturated) as second:
            addon.submit_price_check(urls[3])
        base, factor = tier.backoff.base, tier.backoff.factor
        assert first.value.retry_after == pytest.approx(base)
        assert second.value.retry_after == pytest.approx(base * factor)
        assert first.value.depth == 2 and first.value.limit == 2
        assert tier.shed_total == 2

        # shed tickets are failed at the Coordinator: nothing leaks
        shed_id = first.value.job_id
        assert sheriff.coordinator.jobs[shed_id].failed
        assert sheriff.coordinator.pending_jobs() == 2

        # draining makes room and resets the shed streak
        for handle in wave:
            addon.collect(handle)
        late = addon.submit_price_check(urls[4])
        assert tier._shed_streak == 0
        with pytest.raises(QueueSaturated):
            # saturate again: the streak starts over at the base delay
            [addon.submit_price_check(u) for u in urls[5:7]]
        assert addon.collect(late).rows

    def test_retry_after_is_capped(self, world):
        sheriff = _queued_sheriff(world, queue_depth=1)
        addon = _addon(world, sheriff)
        urls = _product_urls(world)
        addon.submit_price_check(urls[0])
        tier = sheriff.job_queue
        last = 0.0
        for url in (urls * 4)[:12]:
            with pytest.raises(QueueSaturated) as exc:
                addon.submit_price_check(url)
            last = exc.value.retry_after
            assert last <= tier.backoff.cap
        assert last == pytest.approx(tier.backoff.cap)


class TestWorkStealing:
    def test_offline_owner_steal_consumes_retry_budget(self, world):
        """An owner marked offline through the distributor alone is
        reported to the Coordinator at dispatch; the Coordinator's
        failover moves the job (through the retry budget) and the tier
        steals nothing."""
        sheriff = _queued_sheriff(world, telemetry=Telemetry())
        addon = _addon(world, sheriff)
        handle = addon.submit_price_check(_product_urls(world)[0])
        tier = sheriff.job_queue
        owner = handle.server_name
        sheriff.distributor.mark_offline(owner)

        result = addon.collect(handle)
        assert result.rows
        assert tier.steals == {}
        assert sheriff.coordinator.failovers == 1
        record = sheriff.coordinator.jobs[handle.job_id]
        assert record.attempts == 2
        assert record.server_name != owner
        assert _journey_spans(sheriff, "steal") == []
        # one chain: the Coordinator's retry is a stage of the same
        # journey, each stage under the one before it; the outbox dwell
        # hangs beside the path, under the stage it followed
        spans = sheriff.journey(handle.job_id)["spans"]
        by_name = {s.name: s for s in spans}
        chain = ["assign", "admission", "retry", "dispatch"]
        for parent, child in zip(chain, chain[1:]):
            assert by_name[child].parent_id == by_name[parent].span_id, child
        assert by_name["queue_wait"].parent_id == by_name["retry"].span_id
        assert by_name["retry"].attrs["server"] == record.server_name
        assert by_name["dispatch"].attrs["server"] == record.server_name

    def test_imbalance_transfer_is_budget_free(self, world):
        sheriff = _queued_sheriff(
            world, queue_steal_threshold=2, telemetry=Telemetry()
        )
        addon = _addon(world, sheriff)
        urls = _product_urls(world)
        # pile every assignment onto ms-0 while ms-1 is down...
        sheriff.distributor.mark_offline("ms-1")
        wave = [addon.submit_price_check(url) for url in urls[:4]]
        assert all(h.server_name == "ms-0" for h in wave)
        # ...then bring ms-1 back before the drain
        sheriff.distributor.heartbeat("ms-1", world.clock.now)

        tier = sheriff.job_queue
        tier.pump()
        assert tier.steals.get("imbalance", 0) >= 1
        stolen = [
            s for s in _journey_spans(sheriff, "steal")
            if s.attrs["reason"] == "imbalance"
        ]
        assert stolen and stolen[0].attrs["dst"] == "ms-1"
        # a transfer is not a failover: no retry budget was spent
        for handle in wave:
            assert sheriff.coordinator.jobs[handle.job_id].attempts == 1
            assert addon.collect(handle).rows

    def test_no_steal_below_the_threshold(self, world):
        """An imbalance no larger than the threshold moves nothing."""
        sheriff = _queued_sheriff(world, queue_steal_threshold=1_000)
        addon = _addon(world, sheriff)
        sheriff.distributor.mark_offline("ms-1")
        wave = [
            addon.submit_price_check(url)
            for url in _product_urls(world)[:4]
        ]
        sheriff.distributor.heartbeat("ms-1", world.clock.now)
        sheriff.job_queue.pump()
        assert sheriff.job_queue.steals == {}
        for handle in wave:
            addon.collect(handle)


class TestDeadLetters:
    @pytest.mark.parametrize(
        "telemetry", [True, False], ids=["telemetry", "no-telemetry"]
    )
    def test_budget_exhaustion_dead_letters_the_job(self, world, telemetry):
        sheriff = _queued_sheriff(world, telemetry=Telemetry(enabled=telemetry))
        addon = _addon(world, sheriff)
        url = _product_urls(world)[0]
        handle = addon.submit_price_check(url)
        tier = sheriff.job_queue
        # no server left online: the Coordinator's failover finds
        # nowhere to go and fails the job
        for name in ("ms-0", "ms-1"):
            sheriff.distributor.mark_offline(name)

        with pytest.raises(PriceCheckFailed) as exc:
            tier.result(handle)
        assert exc.value.job_id == handle.job_id
        assert "no online Measurement server" in str(exc.value)
        assert tier.dead_lettered == 1
        record = sheriff.coordinator.jobs[handle.job_id]
        # the same record with telemetry on or off
        assert (record.url, record.server_name, record.failure_reason) == (
            url, handle.server_name, "no online Measurement server",
        )
        assert sheriff.coordinator.failed_jobs() == [record]
        # the post-mortem reads the reason from the journey's ticket
        journey = sheriff.journey(handle.job_id)
        assert journey["ticket"]["failed"] is True
        assert journey["ticket"]["failure_reason"] == "no online Measurement server"
        if telemetry:
            spans = journey["spans"]
            assert [s.name for s in spans] == ["assign", "admission"]
            assert [s.parent_id for s in spans] == [None, spans[0].span_id]
        else:
            assert journey["spans"] == []
        # the handle is spent: a later result is an UnknownJob
        with pytest.raises(UnknownJob):
            tier.result(handle)

    def test_dead_letter_does_not_block_the_queue(self, world):
        sheriff = _queued_sheriff(world)
        addon = _addon(world, sheriff)
        urls = _product_urls(world)
        doomed = addon.submit_price_check(urls[0])
        sheriff.distributor.mark_offline(doomed.server_name)
        survivor_name = "ms-1" if doomed.server_name == "ms-0" else "ms-0"
        # exhaust the doomed job's budget against a one-server fleet
        record = sheriff.coordinator.jobs[doomed.job_id]
        record.attempts = sheriff.coordinator.retry_budget
        healthy = addon.submit_price_check(urls[1])

        result = addon.collect(healthy)
        assert result.rows
        assert sheriff.job_queue.dead_lettered == 1
        with pytest.raises(PriceCheckFailed):
            sheriff.job_queue.result(doomed)
        assert sheriff.coordinator.jobs[healthy.job_id].completed
        assert survivor_name  # the fleet kept serving


class TestObservability:
    def test_queue_metrics_and_stats(self, world):
        telemetry = Telemetry()
        sheriff = _queued_sheriff(world, telemetry=telemetry, queue_depth=2)
        addon = _addon(world, sheriff)
        urls = _product_urls(world)
        wave = [addon.submit_price_check(url) for url in urls[:2]]
        with pytest.raises(QueueSaturated):
            addon.submit_price_check(urls[2])
        for handle in wave:
            addon.collect(handle)

        registry = telemetry.registry
        assert registry.get("sheriff_queue_enqueued_total").total == 2
        assert registry.get("sheriff_queue_dispatched_total").total == 2
        assert registry.get("sheriff_queue_shed_total").total == 1
        assert registry.get("sheriff_queue_depth") is not None
        assert registry.get("sheriff_queue_wait_seconds").total_count() == 2

        stats = sheriff.job_queue.stats()
        assert stats == {
            "depth": 0,
            "max_depth": 2,
            "max_depth_seen": 2,
            "enqueued": 2,
            "dispatched": 2,
            "shed": 1,
            "steals": {},
            "dead_lettered": 0,
        }

    def test_tier_rejects_degenerate_depth(self, world):
        with pytest.raises(ValueError):
            _queued_sheriff(world, queue_depth=0)


class TestFleetScaling:
    @staticmethod
    def _run(n_servers):
        """The same 8 seeded checks, in waves of 4, through a queued fleet
        of ``n_servers`` Measurement servers."""
        _, sheriff, urls, addons = build_cell(
            CellConfig(
                job_queue=True, n_measurement_servers=n_servers,
                ipc_sites=DEFAULT_IPC_SITES[:6],
                n_stores=2,
            ),
            n_users=4,
        )
        start = sheriff.engine.now
        job_ids, rows = [], 0
        for first in (0, 4):
            wave = [
                (addon, addon.submit_price_check(urls[first + u]))
                for u, addon in enumerate(addons)
            ]
            for addon, handle in wave:
                job_ids.append(handle.job_id)
                rows += len(addon.collect(handle).rows)
        gathered = sum(len(sheriff.db.sp_responses_for_job(j)) for j in job_ids)
        return sheriff.engine.now - start, rows, gathered, sheriff.job_queue.stats()

    def test_larger_fleet_is_at_least_as_fast(self):
        makespan_1, rows_1, gathered_1, stats_1 = self._run(1)
        makespan_2, rows_2, gathered_2, stats_2 = self._run(2)
        assert 0 < makespan_2 <= makespan_1
        assert rows_1 == rows_2 > 0
        # scatter-gather read-back finds every persisted row on any shard count
        assert (gathered_1, gathered_2) == (rows_1, rows_2)
        assert stats_1["dead_lettered"] == stats_2["dead_lettered"] == 0
        assert stats_1["dispatched"] == stats_2["dispatched"] == 8
