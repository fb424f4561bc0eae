"""Coordinator failure paths: retry exhaustion, resolved tickets, backoff.

The happy path (assign → complete) is pinned all over the suite; these
tests pin the edges the queue tier leans on — what happens when a job's
retry budget runs dry, when a failover races a terminal state, and
how the backoff schedule grows between attempts.
"""

import pytest

from repro.core.coordinator import RetryBudgetExhausted
from repro.core.errors import UnknownJob
from repro.net.faults import BackoffPolicy

from .test_progressive_and_pii import product_url


def _mint_job(world, sheriff, es_user):
    url = product_url(world)
    ticket, _ = sheriff.coordinator.new_request(
        es_user.peer_id, url, es_user.browser.location
    )
    return ticket


def _fail_over(world, coordinator, record):
    """Fail the job's server over, then let that server heartbeat back."""
    dead = record.server_name
    coordinator.handle_server_failure(dead)
    coordinator.distributor.heartbeat(dead, world.clock.now)


class TestRetryExhaustion:
    def test_fail_job_after_budget_runs_dry(self, world, sheriff, es_user):
        coordinator = sheriff.coordinator
        ticket = _mint_job(world, sheriff, es_user)
        record = coordinator.jobs[ticket.job_id]
        # budget is 3 assignments total; the first came with the ticket,
        # and each failover of the job's server spends one more
        _fail_over(world, coordinator, record)
        _fail_over(world, coordinator, record)
        assert record.attempts == coordinator.retry_budget
        assert not record.resolved

        coordinator.handle_server_failure(record.server_name)
        assert record.failed
        assert record.failure_reason == str(
            RetryBudgetExhausted(ticket.job_id, coordinator.retry_budget)
        )
        assert coordinator.jobs_failed == 1
        assert coordinator.pending_jobs() == 0
        # a later report changes nothing
        coordinator.fail_job(ticket.job_id, "retry budget exhausted")
        assert coordinator.jobs_failed == 1

    def test_fail_job_is_idempotent(self, world, sheriff, es_user):
        coordinator = sheriff.coordinator
        ticket = _mint_job(world, sheriff, es_user)
        coordinator.fail_job(ticket.job_id, "first report")
        coordinator.fail_job(ticket.job_id, "second report")
        record = coordinator.jobs[ticket.job_id]
        assert coordinator.jobs_failed == 1
        assert record.failure_reason == "first report"

    def test_late_completion_of_failed_job_is_ignored(
        self, world, sheriff, es_user
    ):
        coordinator = sheriff.coordinator
        ticket = _mint_job(world, sheriff, es_user)
        coordinator.fail_job(ticket.job_id, "gone")
        coordinator.job_completed(ticket.job_id)
        record = coordinator.jobs[ticket.job_id]
        assert record.failed and not record.completed

    def test_fail_job_unknown_id(self, sheriff):
        with pytest.raises(UnknownJob):
            sheriff.coordinator.fail_job("job-nope", "reason")


class TestReassignResolvedTicket:
    """A failover moves only pending jobs: a resolved one keeps its
    server, its attempts and its terminal state."""

    @staticmethod
    def _assert_not_moved(coordinator, ticket):
        # new_request hands back the job's record itself: note its owner
        # before the failover that must not move it
        owner = ticket.server_name
        coordinator.handle_server_failure(owner)
        record = coordinator.jobs[ticket.job_id]
        assert (record.server_name, record.attempts) == (owner, 1)
        assert coordinator.jobs_reassigned == 0
        assert coordinator.pending_jobs() == 0
        with pytest.raises(UnknownJob, match="already resolved"):
            coordinator.transfer_job(ticket.job_id, owner)
        return record

    def test_reassign_completed_job_raises(self, world, sheriff, es_user):
        coordinator = sheriff.coordinator
        ticket = _mint_job(world, sheriff, es_user)
        coordinator.job_completed(ticket.job_id)
        record = self._assert_not_moved(coordinator, ticket)
        assert record.completed and not record.failed

    def test_reassign_failed_job_raises(self, world, sheriff, es_user):
        coordinator = sheriff.coordinator
        ticket = _mint_job(world, sheriff, es_user)
        coordinator.fail_job(ticket.job_id, "dead")
        record = self._assert_not_moved(coordinator, ticket)
        assert record.failed and record.failure_reason == "dead"
        assert coordinator.jobs_failed == 1

    def test_transfer_resolved_or_unknown_job_raises(
        self, world, sheriff, es_user
    ):
        coordinator = sheriff.coordinator
        ticket = _mint_job(world, sheriff, es_user)
        coordinator.job_completed(ticket.job_id)
        with pytest.raises(UnknownJob, match="already resolved"):
            coordinator.transfer_job(ticket.job_id, "server-01")
        with pytest.raises(UnknownJob):
            coordinator.transfer_job("job-nope", "server-01")


class TestBackoffSchedule:
    def test_delay_monotone_and_capped_without_jitter(self):
        policy = BackoffPolicy(jitter=0.0)
        delays = [policy.delay(attempt) for attempt in range(12)]
        assert delays[0] == policy.base
        assert all(a <= b for a, b in zip(delays, delays[1:]))
        assert max(delays) == policy.cap
        assert delays[-1] == policy.cap

    def test_next_backoff_accounts_and_grows(self, sheriff):
        coordinator = sheriff.coordinator
        coordinator.backoff = BackoffPolicy(jitter=0.0)
        delays = [coordinator.next_backoff(attempt) for attempt in range(5)]
        assert all(a <= b for a, b in zip(delays, delays[1:]))
        assert coordinator.backoff_seconds == pytest.approx(sum(delays))

    def test_jitter_stays_within_band(self, sheriff):
        coordinator = sheriff.coordinator
        policy = coordinator.backoff
        for attempt in range(8):
            raw = min(policy.cap, policy.base * policy.factor ** attempt)
            delay = coordinator.next_backoff(attempt)
            assert raw * (1 - policy.jitter) <= delay <= raw * (1 + policy.jitter)
