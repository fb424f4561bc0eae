"""One timeline: a price check takes time on the clock everything reads.

The engine lands every fetch on the world's event loop, so a check's
turnaround is real simulated time, the Coordinator sees a job pending
until its last fetch lands, and least-jobs spreads an idle fleet in
turn.  These tests pin that against the world clock directly, against
the supervisor's pool drain, and against the two exposition goldens.
"""

from pathlib import Path

import pytest

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.obs import Telemetry
from repro.ops import build_supervisor
from repro.workloads.stores import build_named_stores, uniform_store_specs

from .conftest import SMALL_IPC_SITES

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


def _deployment():
    """Two servers with two fetch workers each, two ES peers and three
    initiators over one store; returns the sheriff, the initiators and
    the store's product URLs."""
    world = SheriffWorld.create(seed=71)
    (store,) = build_named_stores(world, uniform_store_specs(1, seed=74)).values()
    sheriff = PriceSheriff(
        world, n_measurement_servers=2, ipc_sites=SMALL_IPC_SITES[:4],
        max_fetch_workers=2, telemetry=Telemetry(),
    )
    for city in ("Madrid", "Barcelona"):
        sheriff.install_addon(world.make_browser("ES", city))
    users = [
        sheriff.install_addon(world.make_browser("ES", "Madrid"), serve_as_ppc=False)
        for _ in range(3)
    ]
    urls = [store.product_url(p.product_id) for p in store.catalog.products]
    return sheriff, users, urls


def _last_landing(sheriff, *job_ids):
    """When the last fetch of these jobs landed: the end of their
    latest ``fetch`` span, recorded as the task landed."""
    return max(
        span.end for job_id in job_ids
        for span in sheriff.telemetry.tracer.spans_for(job_id)
        if span.name == "fetch"
    )


def _rows(sheriff):
    return [
        tuple(sorted((k, v) for k, v in row.items() if k != "_id"))
        for row in sheriff.db.scan("responses")
    ]


class TestAChecksTimeIsWorldTime:
    def test_a_check_moves_the_world_clock_to_its_last_landing(self):
        sheriff, users, urls = _deployment()
        clock = sheriff.world.clock
        assert sheriff.engine.loop.clock is clock
        record = users[0].submit_price_check(urls[0])
        assert record is sheriff.coordinator.jobs[record.job_id]
        assert clock.now == record.started_at
        # pending until the last fetch lands, not when the fan-out ran
        assert sheriff.coordinator.load() == {record.server_name: 1}
        result = users[0].collect(record)
        assert result.time == record.started_at  # priced at the fan-out
        assert clock.now == _last_landing(sheriff, record.job_id) > record.started_at
        assert record.completed and sheriff.coordinator.load() == {}

    def test_turnaround_is_the_last_landing_minus_the_admission(self):
        sheriff, users, urls = _deployment()
        record = users[0].submit_price_check(urls[0])
        users[0].collect(record)
        turnaround = sheriff.telemetry.registry.get("sheriff_job_turnaround_seconds")
        assert turnaround.count(server=record.server_name) == 1
        expected = _last_landing(sheriff, record.job_id) - record.started_at
        assert expected > 0
        lines = []
        turnaround.expose(lines)
        (total,) = [line for line in lines if line.startswith(
            f'sheriff_job_turnaround_seconds_sum{{server="{record.server_name}"}}')]
        assert float(total.split()[-1]) == pytest.approx(expected)


class TestARunningJobStays:
    def test_a_failover_leaves_a_job_whose_fan_out_ran(self):
        """A running job's rows are stored; a server failure while its
        fetches land neither moves nor fails it, and its completion is
        reported when the last fetch lands."""
        sheriff, users, urls = _deployment()
        record = users[0].submit_price_check(urls[0])
        owner = record.server_name
        assert record.state == "running" and not record.resolved
        sheriff.coordinator.handle_server_failure(owner)
        assert (record.server_name, record.attempts) == (owner, 1)
        assert not record.resolved
        assert users[0].collect(record).rows
        assert record.completed


class TestDrain:
    """``PriceCheckEngine.drain`` is the restart action of every
    ``<server>/pool`` supervisor component."""

    def _in_flight(self):
        sheriff, users, urls = _deployment()
        records = [
            user.submit_price_check(url) for user, url in zip(users, urls)
        ]
        assert not any(record.resolved for record in records)
        return sheriff, users, records

    def test_drain_lands_every_job_in_flight(self):
        sheriff, users, records = self._in_flight()
        supervisor = build_supervisor(sheriff)
        pool = supervisor.component("ms-0/pool")
        assert pool.restart == sheriff.engine.drain
        pool.restart()
        assert all(r.completed for r in records)
        assert all(r.rows_arrived == len(r.result.rows) > 0 for r in records)
        assert sheriff.world.clock.now == _last_landing(
            sheriff, *(r.job_id for r in records))
        assert sheriff.coordinator.load() == {}
        assert sheriff.engine.loop.step() is False

    def test_drained_rows_equal_an_undrained_run(self):
        drained, drained_users, drained_records = self._in_flight()
        drained.engine.drain()
        drained_results = [
            user.collect(record)
            for user, record in zip(drained_users, drained_records)
        ]
        undrained, users, records = self._in_flight()
        results = [user.collect(record) for user, record in zip(users, records)]
        assert [r.rows for r in drained_results] == [r.rows for r in results]
        assert _rows(drained) == _rows(undrained) != []
        assert drained.world.clock.now == undrained.world.clock.now


class TestTheGoldens:
    """What the two exposition goldens say about the one timeline."""

    @pytest.mark.parametrize(
        "golden", ("metrics_requests24.prom", "metrics_slo_drill.prom")
    )
    def test_every_turnaround_sum_is_positive(self, golden):
        text = (GOLDEN / golden).read_text()
        sums = [
            float(line.split()[-1]) for line in text.splitlines()
            if line.startswith("sheriff_job_turnaround_seconds_sum")
        ]
        assert sums and all(s > 0 for s in sums)
        assert "sheriff_engine_clock_seconds" not in text

    def test_the_metrics_drill_spreads_its_checks(self):
        """The four servers of ``repro metrics --requests 24`` each ran
        a share of its checks: no two differ by more than one."""
        text = (GOLDEN / "metrics_requests24.prom").read_text()
        ran = {
            line.split('"')[1]: float(line.split()[-1])
            for line in text.splitlines()
            if line.startswith("sheriff_engine_jobs_submitted_total{")
        }
        assert sorted(ran) == ["ms-0", "ms-1", "ms-2", "ms-3"]
        assert max(ran.values()) - min(ran.values()) <= 1
