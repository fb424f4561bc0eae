"""Failover and chaos tests for the measurement pipeline.

Covers the recovery machinery end to end: heartbeat expiry → offline
marking → job reassignment, per-job retry budgets, quorum enforcement,
and full price checks under randomized fault plans.  The standing
property: every job reaches a terminal state — a result page or an
explicit failure report — and is counted exactly once.  No hangs, no
double counts, no silent drops.
"""

import pytest

from repro.core.addon import PriceCheckFailed
from repro.core.coordinator import RetryBudgetExhausted
from repro.core.dispatch import NoServerAvailable, RequestDistributor
from repro.core.sheriff import PriceSheriff
from repro.net.faults import FaultPlan, FaultRule
from repro.obs import Telemetry
from repro.workloads.deployment import DeploymentConfig, LiveDeployment

from tests.core.conftest import (
    SMALL_IPC_SITES,
    bare_coordinator,
    lifecycle,
    submit_job,
)


# -- satellite regression: the fresh-server staleness bug --------------------

class TestServerRecordStaleness:
    """Regression: ``ServerRecord.timestamp`` defaulted to ``0.0``, so a
    server registered at a large simulated time was instantly stale —
    ``now - 0.0`` exceeded any timeout before its first heartbeat."""

    def test_fresh_server_not_instantly_stale(self):
        d = RequestDistributor(heartbeat_timeout=30.0)
        d.register_server("ms-0", "10.0.0.1", now=1_000_000.0)
        assert d.expire_stale(now=1_000_010.0) == []
        assert d.server("ms-0").online

    def test_registration_buys_one_timeout_window(self):
        d = RequestDistributor(heartbeat_timeout=30.0)
        d.register_server("ms-0", "10.0.0.1", now=1000.0)
        assert d.expire_stale(now=1029.0) == []
        assert d.expire_stale(now=1031.0) == ["ms-0"]

    def test_heartbeat_takes_over_from_registration(self):
        d = RequestDistributor(heartbeat_timeout=30.0)
        d.register_server("ms-0", "10.0.0.1", now=1000.0)
        d.heartbeat("ms-0", now=1025.0)
        assert d.server("ms-0").last_seen == 1025.0
        assert d.expire_stale(now=1050.0) == []
        assert d.expire_stale(now=1056.0) == ["ms-0"]


# -- dispatch-level failover -------------------------------------------------

class TestDispatchFailover:
    @pytest.fixture
    def telemetry(self):
        return Telemetry()

    @pytest.fixture
    def distributor(self, telemetry):
        d = RequestDistributor(telemetry=telemetry)
        d.register_server("ms-0", "10.0.0.1")
        d.register_server("ms-1", "10.0.0.2")
        d.register_server("ms-2", "10.0.0.3")
        return d

    @pytest.fixture
    def coordinator(self, distributor, telemetry):
        return bare_coordinator(distributor, telemetry=telemetry)

    def test_mark_offline_returns_pending_jobs(self, distributor, coordinator):
        """The server list only marks the server; its pending jobs are
        the Coordinator's records that name it."""
        record = submit_job(coordinator)
        assert distributor.mark_offline(record.server_name) is None
        assert coordinator.jobs_on(record.server_name) == [record.job_id]
        assert not distributor.server(record.server_name).online

    def test_reassign_moves_to_survivor(self, distributor, coordinator):
        record = submit_job(coordinator)
        dead = record.server_name
        coordinator.handle_server_failure(dead)
        survivor = record.server_name
        assert survivor != dead
        assert coordinator.load() == {survivor: 1}
        assert coordinator.jobs_on(dead) == []
        assert coordinator.jobs_on(survivor) == [record.job_id]

    def test_reassign_excludes_old_server_even_if_online(
        self, distributor, coordinator
    ):
        """The job never goes back to the server it leaves, and a
        heartbeat that brings that server back does not move it again."""
        first = submit_job(coordinator)
        assert first.server_name == "ms-0"
        coordinator.handle_server_failure("ms-0")
        distributor.heartbeat("ms-0", coordinator.clock.now)
        assert coordinator.jobs[first.job_id].server_name != "ms-0"
        assert coordinator.jobs_on("ms-0") == []

    def test_reassign_does_not_inflate_assignments(self, coordinator, telemetry):
        record = submit_job(coordinator)
        coordinator.handle_server_failure(record.server_name)
        assert lifecycle(telemetry, "assigned") == 1
        assert lifecycle(telemetry, "reassigned") == 1
        assert coordinator.jobs_reassigned == 1

    def test_no_survivor_raises(self, distributor, coordinator):
        """With no online server left the Coordinator fails the job; the
        caller reads that from the record."""
        record = submit_job(coordinator)
        assert record.server_name == "ms-0"
        for name in ("ms-1", "ms-2"):
            distributor.server(name).online = False
        coordinator.handle_server_failure("ms-0")
        assert record.failed
        assert record.failure_reason == str(
            NoServerAvailable("no online Measurement server")
        )
        # nothing moved: the job failed on its first server
        assert (record.server_name, record.attempts) == ("ms-0", 1)
        assert coordinator.jobs_on("ms-0") == []
        assert coordinator.pending_jobs() == 0

    def test_conservation_with_failures_and_reassignments(
        self, distributor, coordinator, telemetry
    ):
        submitted = [submit_job(coordinator) for _ in range(12)]
        coordinator.handle_server_failure("ms-0")
        assert coordinator.jobs_on("ms-0") == []
        for record in submitted[::3]:
            coordinator.job_completed(record.job_id)
        coordinator.fail_job(submitted[1].job_id, "test")
        assert lifecycle(telemetry, "assigned") == (
            lifecycle(telemetry, "completed") + lifecycle(telemetry, "failed")
            + coordinator.pending_jobs()
        )
        records = coordinator.jobs.values()
        assert len(coordinator.jobs) == (
            sum(r.completed for r in records) + sum(r.failed for r in records)
            + coordinator.pending_jobs()
        )


# -- Coordinator-level failover ----------------------------------------------

@pytest.fixture
def location(world):
    return world.geodb.make_location("ES", "Madrid")


@pytest.fixture
def coordinator(sheriff):
    return sheriff.coordinator


class TestCoordinatorFailover:
    def _job(self, coordinator, location, peer="peer-x"):
        ticket, _ = coordinator.new_request(
            peer, "http://uniform.example/product/uniform-0000", location
        )
        return ticket

    def test_handle_server_failure_requeues_other_jobs(
        self, coordinator, location
    ):
        t1 = self._job(coordinator, location, "peer-1")
        dead = t1.server_name
        # land a second job on the same server by taking the other offline
        for server in coordinator.distributor.servers():
            if server.name != dead:
                server.online = False
        t2 = self._job(coordinator, location, "peer-2")
        assert t2.server_name == dead
        for server in coordinator.distributor.servers():
            server.online = True

        coordinator.handle_server_failure(dead)
        assert not coordinator.distributor.server(dead).online
        # every job pending on the dead server moved to a survivor,
        # the caller's own job included: one decision, at the Coordinator
        for record in (t1, t2):
            assert record.server_name != dead
            assert record.attempts == 2
        assert coordinator.jobs_on(dead) == []

    def test_retry_budget_exhausts(self, coordinator, location):
        ticket = self._job(coordinator, location)
        record = coordinator.jobs[ticket.job_id]
        budget = coordinator.retry_budget
        distributor = coordinator.distributor
        for _ in range(budget - 1):
            dead = record.server_name
            coordinator.handle_server_failure(dead)
            distributor.heartbeat(dead, coordinator.clock.now)
        assert record.attempts == budget
        assert not record.resolved
        coordinator.handle_server_failure(record.server_name)
        assert record.failed
        assert record.failure_reason == str(
            RetryBudgetExhausted(ticket.job_id, budget)
        )

    def test_fail_job_is_terminal_and_idempotent(self, coordinator, location):
        ticket = self._job(coordinator, location)
        coordinator.fail_job(ticket.job_id, "test reason")
        pending = coordinator.pending_jobs()
        coordinator.fail_job(ticket.job_id, "again")
        assert coordinator.pending_jobs() == pending == 0
        assert coordinator.jobs_failed == 1
        assert coordinator.jobs[ticket.job_id].failure_reason == "test reason"

    def test_late_completion_after_failure_ignored(self, coordinator, location):
        """A server finishing a job the Coordinator already failed must
        not double-count it (lost-message reconciliation, App. 10.3)."""
        ticket = self._job(coordinator, location)
        coordinator.fail_job(ticket.job_id, "gone")
        coordinator.job_completed(ticket.job_id)
        assert coordinator.pending_jobs() == 0
        assert not coordinator.jobs[ticket.job_id].completed
        assert coordinator.jobs[ticket.job_id].failed

    def test_backoff_accumulates_on_counter_not_clock(self, coordinator):
        before = coordinator.clock.now
        delay = coordinator.next_backoff(attempt=0)
        assert delay > 0
        assert coordinator.backoff_seconds == pytest.approx(delay)
        assert coordinator.clock.now == before

    def test_chaos_tick_noop_without_fault_plan(self, coordinator, location):
        assert coordinator.faults is None
        ticket = self._job(coordinator, location)
        assert coordinator.chaos_tick() == []
        assert coordinator.distributor.server(ticket.server_name).online


class TestHeartbeatExpiry:
    def test_flapping_server_expires_and_jobs_move(self, world):
        """A server inside a flap window misses heartbeats, expires, and
        its pending jobs land on the survivor."""
        plan = FaultPlan(
            [FaultRule(kind="flap", probability=1.0, dst="ms-0",
                       flap_duration=3600.0)],
            seed=1,
        )
        sheriff = PriceSheriff(
            world, n_measurement_servers=2, ipc_sites=SMALL_IPC_SITES,
            faults=plan,
        )
        coordinator = sheriff.coordinator
        # jump past the heartbeat timeout so ms-0's silence registers
        world.clock.advance(60.0)
        expired = coordinator.chaos_tick()
        assert expired == ["ms-0"]
        assert not coordinator.distributor.server("ms-0").online
        assert coordinator.distributor.server("ms-1").online


# -- quorum enforcement ------------------------------------------------------

class TestQuorum:
    def test_unreachable_quorum_fails_explicitly(self, world):
        sheriff = PriceSheriff(
            world, n_measurement_servers=1, ipc_sites=SMALL_IPC_SITES,
            quorum=1000,
        )
        addon = sheriff.install_addon(world.make_browser("ES", "Madrid"))
        with pytest.raises(PriceCheckFailed):
            addon.check_price(
                "http://uniform.example/product/uniform-0000"
            )
        failed = sheriff.coordinator.failed_jobs()
        assert len(failed) == 1
        assert "quorum" in failed[0].failure_reason
        assert sheriff.measurement_stats().quorum_failures == 1

    def test_reachable_quorum_passes(self, world):
        sheriff = PriceSheriff(
            world, n_measurement_servers=1, ipc_sites=SMALL_IPC_SITES,
            quorum=3,
        )
        addon = sheriff.install_addon(world.make_browser("ES", "Madrid"))
        result = addon.check_price(
            "http://uniform.example/product/uniform-0000"
        )
        assert len(result.rows) >= 3


# -- full price checks under randomized fault plans --------------------------

CHAOS_SEEDS = [0, 1, 2, 7, 23, 101]


class TestChaosPriceChecks:
    """Property: under any seeded fault plan, every price check reaches a
    terminal state and the accounting balances exactly."""

    URL = "http://uniform.example/product/uniform-0000"

    def _run(self, world, profile, seed, n_checks=8):
        sheriff = PriceSheriff(
            world, n_measurement_servers=3, ipc_sites=SMALL_IPC_SITES,
            chaos_profile=profile, chaos_seed=seed, telemetry=Telemetry(),
        )
        addon = sheriff.install_addon(world.make_browser("ES", "Madrid"))
        for city in ("Madrid", "Barcelona", "Valencia"):
            sheriff.install_addon(world.make_browser("ES", city))
        ok = failed = 0
        for _ in range(n_checks):
            world.clock.advance(120.0)
            try:
                result = addon.check_price(self.URL)
            except PriceCheckFailed:
                failed += 1
            else:
                ok += 1
                assert len(result.rows) >= sheriff.quorum
        return sheriff, ok, failed

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_chaos_monkey_always_resolves(self, world, seed):
        sheriff, ok, failed = self._run(world, "chaos_monkey", seed)
        coordinator = sheriff.coordinator
        # terminal: every job completed or explicitly failed, none pending
        assert all(j.resolved for j in coordinator.jobs.values())
        assert coordinator.pending_jobs() == 0
        # counted exactly once
        assert ok + failed == len(coordinator.jobs)
        records = coordinator.jobs.values()
        assert sum(r.completed for r in records) == ok
        assert sum(r.failed for r in records) == failed
        assert coordinator.jobs_failed == failed
        telemetry = sheriff.telemetry
        assert lifecycle(telemetry, "assigned") == ok + failed
        assert lifecycle(telemetry, "completed") == ok
        assert lifecycle(telemetry, "failed") == failed

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:3])
    def test_flaky_peers_degrade_gracefully(self, world, seed):
        """Peer faults thin out vantage points but never sink a check:
        the IPC fleet alone satisfies quorum 1."""
        sheriff, ok, failed = self._run(world, "flaky_peers", seed)
        assert failed == 0
        assert ok == 8

    def test_fault_report_consistent_with_run(self, world):
        sheriff, ok, failed = self._run(world, "chaos_monkey", seed=23)
        report = sheriff.fault_report()
        assert report["chaos_profile"] == "chaos_monkey"
        assert report["jobs_failed"] == failed
        assert report["faults_injected"] == len(sheriff.faults.event_log())


# -- the lossy-profile deployment acceptance test ----------------------------

def _lossy_config(seed=2017):
    config = DeploymentConfig.test_scale()
    config.seed = seed
    config.n_requests = 60
    config.n_users = 25
    config.chaos_profile = "lossy"
    config.chaos_seed = seed
    return config


class TestLossyDeployment:
    def test_resolution_rate_at_least_95_percent(self):
        """A full deployment run under the ``lossy`` profile (10% peer
        drop, 5% server flap) resolves ≥95% of attempted checks with a
        result page or an explicit failure report.  Unhandled exceptions
        would propagate and fail this test outright."""
        dataset = LiveDeployment(_lossy_config()).run()
        assert dataset.n_attempted >= 60
        assert dataset.resolution_rate >= 0.95
        assert dataset.n_resolved == (
            len(dataset.results) + dataset.n_explicit_failures
        )
        # the accounting balances at the dispatch layer too
        sheriff = dataset.sheriff
        records = sheriff.coordinator.jobs.values()
        assert len(records) == (
            sum(r.completed for r in records) + sum(r.failed for r in records)
            + sheriff.coordinator.pending_jobs()
        )

    def test_same_seed_runs_are_identical(self):
        """Determinism audit: all randomness flows from injected RNGs, so
        two runs from the same seeds produce identical fault event logs
        and identical outcomes."""
        a = LiveDeployment(_lossy_config(seed=5)).run()
        b = LiveDeployment(_lossy_config(seed=5)).run()
        assert a.sheriff.faults.event_log() == b.sheriff.faults.event_log()
        assert len(a.results) == len(b.results)
        assert a.n_explicit_failures == b.n_explicit_failures
        assert [r.url for r in a.results] == [r.url for r in b.results]
        assert a.sheriff.fault_report() == b.sheriff.fault_report()

    def test_different_seeds_usually_differ(self):
        a = LiveDeployment(_lossy_config(seed=5)).run()
        b = LiveDeployment(_lossy_config(seed=6)).run()
        assert a.sheriff.faults.event_log() != b.sheriff.faults.event_log()
