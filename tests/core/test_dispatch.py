"""Tests for the request distribution protocol (Sect. 3.4).

The Measurement server list picks a server from the load it is given;
jobs are assigned, completed and failed through the Coordinator, whose
pending records say which server holds each job and so make each
server's load.
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
        records = [submit_job(coordinator) for _ in range(6)]
        assert [r.server_name for r in records] == ["ms-0", "ms-1", "ms-2"] * 2
        coordinator.transfer_job(records[1].job_id, "ms-0")
        assert coordinator.load() == {"ms-0": 3, "ms-1": 1, "ms-2": 2}
        assert submit_job(coordinator).server_name == "ms-1"

    def test_assign_increments_counter(self, distributor, coordinator):
        record = submit_job(coordinator)
        assert coordinator.pending_jobs() == 1
        assert coordinator.load() == {record.server_name: 1}
        assert coordinator.jobs_on(record.server_name) == [record.job_id]

    def test_complete_decrements(self, distributor, coordinator):
        record = submit_job(coordinator)
        coordinator.job_completed(record.job_id)
        assert coordinator.load() == {}
        assert coordinator.jobs_on(record.server_name) == []

    def test_complete_unknown_job(self, coordinator):
        with pytest.raises(KeyError):
            coordinator.job_completed("ghost")

    def test_offline_server_never_selected(self, distributor, coordinator):
        """ms-0 is the least loaded server, but offline."""
        distributor.server("ms-0").online = False
        for _ in range(4):
            submit_job(coordinator)
        assert coordinator.load() == {"ms-1": 2, "ms-2": 2}
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
        records = [submit_job(coordinator) for _ in range(20)]
        for record in records[::2]:
            coordinator.job_completed(record.job_id)
        assert lifecycle(telemetry, "assigned") == (
            lifecycle(telemetry, "completed") + coordinator.pending_jobs()
        )
        completed = sum(r.completed for r in coordinator.jobs.values())
        assert len(coordinator.jobs) == completed + coordinator.pending_jobs()
        assert sum(coordinator.load().values()) == coordinator.pending_jobs()

    def test_slow_server_gets_fewer_jobs(self, distributor, coordinator):
        """The paper's motivation: least-jobs adapts to slow servers."""
        for _ in range(30):
            record = submit_job(coordinator)
            # fast servers (ms-0, ms-1) complete instantly; ms-2 lags
            if record.server_name != "ms-2":
                coordinator.job_completed(record.job_id)
        assert len(coordinator.jobs_on("ms-2")) <= 2


class TestTiesRotate:
    def test_an_idle_fleet_is_served_in_turn(self):
        d = RequestDistributor()
        for i in range(3):
            d.register_server(f"ms-{i}", f"10.0.0.{i}")
        coordinator = bare_coordinator(d)
        names = []
        for _ in range(5):
            record = submit_job(coordinator)
            names.append(record.server_name)
            coordinator.job_completed(record.job_id)
        assert names == ["ms-0", "ms-1", "ms-2", "ms-0", "ms-1"]

    def test_a_loaded_fleet_is_served_by_load(self):
        d = RequestDistributor()
        d.register_server("ms-0", "10.0.0.1")
        d.register_server("ms-1", "10.0.0.2")
        coordinator = bare_coordinator(d)
        names = [submit_job(coordinator).server_name for _ in range(4)]
        assert names == ["ms-0", "ms-1", "ms-0", "ms-1"]
        # ms-1 frees a slot: it is the least loaded, though ms-0 is next
        coordinator.job_completed(coordinator.jobs_on("ms-1")[0])
        assert coordinator.load() == {"ms-0": 2, "ms-1": 1}
        assert submit_job(coordinator).server_name == "ms-1"

    def test_an_offline_server_is_skipped_in_the_rotation(self):
        d = RequestDistributor()
        for i in range(3):
            d.register_server(f"ms-{i}", f"10.0.0.{i}")
        d.mark_offline("ms-1")
        assert [d.select_server({}).name for _ in range(3)] == [
            "ms-0", "ms-2", "ms-0",
        ]


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

    def test_remove_with_pending_jobs_refused(self, world, sheriff):
        """The deployment refuses to remove a server while a pending
        record names it (App. 10.2.1); the list itself keeps no jobs."""
        location = world.geodb.make_location("ES", "Madrid")
        record, _ = sheriff.coordinator.new_request(
            "peer-x", "http://uniform.example/product/uniform-0000", location
        )
        with pytest.raises(RuntimeError):
            sheriff.remove_measurement_server(record.server_name)
        assert record.server_name in sheriff.measurement_servers
        assert sheriff.distributor.server(record.server_name)

    def test_remove_idle_server(self, distributor):
        distributor.remove_server("ms-2")
        assert len(distributor.servers()) == 2

    def test_monitoring_rows(self, distributor):
        distributor.server("ms-1").online = False
        rows = distributor.monitoring_rows({"ms-2": 4})
        assert len(rows) == 3
        statuses = {r["Worker"]: r["Status"] for r in rows}
        assert statuses["10.0.0.2"] == "offline"
        assert [r["Jobs"] for r in rows] == [0, 0, 4]
