"""Tests for the request distribution protocol (Sect. 3.4).

The Measurement server list picks a server and counts its pending jobs;
jobs are assigned, completed and failed through the Coordinator, whose
records say which server holds each job.
"""

import pytest

from repro.core.dispatch import NoServerAvailable, RequestDistributor
from repro.obs import Telemetry

from .conftest import bare_coordinator, lifecycle, submit_job


@pytest.fixture
def telemetry():
    return Telemetry()


@pytest.fixture
def distributor(telemetry):
    d = RequestDistributor(telemetry=telemetry)
    d.register_server("ms-0", "10.0.0.1", 80)
    d.register_server("ms-1", "10.0.0.2", 80)
    d.register_server("ms-2", "10.0.0.3", 80)
    return d


@pytest.fixture
def coordinator(distributor, telemetry):
    return bare_coordinator(distributor, telemetry=telemetry)


class TestAssignment:
    def test_least_jobs_wins(self, distributor, coordinator):
        distributor.server("ms-0").jobs = 5
        distributor.server("ms-1").jobs = 1
        distributor.server("ms-2").jobs = 3
        assert submit_job(coordinator).server_name == "ms-1"

    def test_assign_increments_counter(self, distributor, coordinator):
        ticket = submit_job(coordinator)
        assert distributor.pending_jobs == 1
        assert coordinator.jobs_on(ticket.server_name) == [ticket.job_id]

    def test_complete_decrements(self, distributor, coordinator):
        ticket = submit_job(coordinator)
        coordinator.job_completed(ticket.job_id)
        assert distributor.server(ticket.server_name).jobs == 0
        assert coordinator.jobs_on(ticket.server_name) == []

    def test_complete_unknown_job(self, coordinator):
        with pytest.raises(KeyError):
            coordinator.job_completed("ghost")

    def test_offline_server_never_selected(self, distributor, coordinator):
        distributor.server("ms-0").online = False
        distributor.server("ms-0").jobs = 0
        distributor.server("ms-1").jobs = 10
        distributor.server("ms-2").jobs = 10
        assert submit_job(coordinator).server_name != "ms-0"

    def test_no_server_available(self, distributor, coordinator):
        for name in ("ms-0", "ms-1", "ms-2"):
            distributor.server(name).online = False
        with pytest.raises(NoServerAvailable):
            submit_job(coordinator)
        assert coordinator.jobs == {}

    def test_counter_conservation_invariant(
        self, distributor, coordinator, telemetry
    ):
        """assigned == completed + pending (DESIGN.md invariant)."""
        tickets = [submit_job(coordinator) for _ in range(20)]
        for ticket in tickets[::2]:
            coordinator.job_completed(ticket.job_id)
        assert lifecycle(telemetry, "assigned") == (
            lifecycle(telemetry, "completed") + distributor.pending_jobs
        )
        completed = sum(r.completed for r in coordinator.jobs.values())
        assert len(coordinator.jobs) == completed + distributor.pending_jobs

    def test_slow_server_gets_fewer_jobs(self, distributor, coordinator):
        """The paper's motivation: least-jobs adapts to slow servers."""
        for _ in range(30):
            ticket = submit_job(coordinator)
            # fast servers (ms-0, ms-1) complete instantly; ms-2 lags
            if ticket.server_name != "ms-2":
                coordinator.job_completed(ticket.job_id)
        assert distributor.server("ms-2").jobs <= 2


class TestRoundRobinAblation:
    def test_round_robin_ignores_load(self):
        d = RequestDistributor(policy="round_robin")
        d.register_server("ms-0", "10.0.0.1")
        d.register_server("ms-1", "10.0.0.2")
        d.server("ms-0").jobs = 100
        coordinator = bare_coordinator(d)
        names = [submit_job(coordinator).server_name for _ in range(4)]
        assert names == ["ms-0", "ms-1", "ms-0", "ms-1"]

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            RequestDistributor(policy="magic")


class TestHeartbeats:
    def test_stale_server_expires(self, distributor):
        distributor.heartbeat("ms-0", now=0.0)
        distributor.heartbeat("ms-1", now=95.0)
        distributor.heartbeat("ms-2", now=95.0)
        expired = distributor.expire_stale(now=100.0)
        assert expired == ["ms-0"]
        assert not distributor.server("ms-0").online

    def test_heartbeat_revives(self, distributor):
        distributor.server("ms-0").online = False
        distributor.heartbeat("ms-0", now=50.0)
        assert distributor.server("ms-0").online


class TestRegistry:
    def test_duplicate_rejected(self, distributor):
        with pytest.raises(ValueError):
            distributor.register_server("ms-0", "10.0.0.9")

    def test_remove_with_pending_jobs_refused(self, distributor, coordinator):
        busy = submit_job(coordinator).server_name
        with pytest.raises(RuntimeError):
            distributor.remove_server(busy)

    def test_remove_idle_server(self, distributor):
        distributor.remove_server("ms-2")
        assert len(distributor.servers()) == 2

    def test_monitoring_rows(self, distributor):
        distributor.server("ms-1").online = False
        rows = distributor.monitoring_rows()
        assert len(rows) == 3
        statuses = {r["Worker"]: r["Status"] for r in rows}
        assert statuses["10.0.0.2"] == "offline"
