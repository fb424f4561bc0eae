"""Health probes for the queued measurement tier.

Part one pins the probe verdicts against a hand-cranked stub tier (no
deployment, no RNG); part two asserts ``build_supervisor`` registers
the queue components exactly when a sheriff runs the tier — alert-only,
so restart-equivalence is preserved.
"""

import pytest

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.ops import build_supervisor
from repro.ops.health import DeadLetterProbe, JobQueueBacklogProbe
from repro.web.pricing import UniformPricing

from ..core.conftest import SMALL_IPC_SITES, _store


class _StubQueue:
    def __init__(self, depth):
        self.depth = depth


class _StubTier:
    """Just the surface the probes read: depth, limit, jobs failed
    before dispatch."""

    def __init__(self, depth=0, max_depth=10):
        self.queue = _StubQueue(depth)
        self.max_depth = max_depth
        self.dead_lettered = 0


class TestJobQueueBacklogProbe:
    def test_healthy_below_the_fraction(self):
        tier = _StubTier(depth=8, max_depth=10)
        result = JobQueueBacklogProbe(tier, max_fraction=0.9).check(0.0)
        assert result.healthy
        assert result.value == pytest.approx(0.8)

    def test_unhealthy_above_the_fraction(self):
        tier = _StubTier(depth=10, max_depth=10)
        result = JobQueueBacklogProbe(tier, max_fraction=0.9).check(0.0)
        assert not result.healthy
        assert "10/10" in result.reason
        assert result.value == pytest.approx(1.0)

    def test_recovers_once_the_queue_drains(self):
        tier = _StubTier(depth=10, max_depth=10)
        probe = JobQueueBacklogProbe(tier, max_fraction=0.9)
        assert not probe.check(0.0).healthy
        tier.queue.depth = 0
        assert probe.check(1.0).healthy


class TestDeadLetterProbe:
    def test_first_check_is_a_baseline(self):
        tier = _StubTier()
        tier.dead_lettered = 2
        probe = DeadLetterProbe(tier)
        result = probe.check(0.0)
        # pre-existing entries are the baseline, not an alert
        assert result.healthy
        assert result.value == 0.0

    def test_new_entry_since_last_check_alerts(self):
        tier = _StubTier()
        probe = DeadLetterProbe(tier)
        assert probe.check(0.0).healthy
        tier.dead_lettered += 1
        result = probe.check(1.0)
        assert not result.healthy
        assert "1 new dead-lettered" in result.reason
        # the delta resets: a steady count is healthy again
        assert probe.check(2.0).healthy

    def test_letter_parked_before_the_first_check_alerts(self):
        tier = _StubTier()
        tier.dead_lettered = 1
        probe = DeadLetterProbe(tier)
        # the baseline is the count at construction, not at first check
        tier.dead_lettered += 1
        result = probe.check(0.0)
        assert not result.healthy
        assert "1 new dead-lettered" in result.reason


class TestSupervisorWiring:
    def _sheriff(self, **kwargs):
        world = SheriffWorld.create(seed=11)
        return PriceSheriff(
            world, n_measurement_servers=2, ipc_sites=SMALL_IPC_SITES,
            **kwargs,
        )

    def test_queued_sheriff_registers_queue_components(self):
        supervisor = build_supervisor(self._sheriff(job_queue=True))
        assert "jobqueue" in supervisor.components
        assert "jobqueue/dlq" in supervisor.components
        # alert-only: nothing to restart when the queue backs up
        assert supervisor.component("jobqueue").restart is None
        assert supervisor.component("jobqueue/dlq").restart is None
        assert supervisor.tick() == []

    def test_dead_letter_before_the_first_tick_alerts(self):
        world = SheriffWorld.create(seed=11)
        store = _store(world, "uniform.example", "ES", UniformPricing())
        sheriff = PriceSheriff(
            world, n_measurement_servers=2, ipc_sites=SMALL_IPC_SITES,
            job_queue=True,
        )
        supervisor = build_supervisor(sheriff)
        addon = sheriff.install_addon(world.make_browser("ES", "Madrid"))
        addon.submit_price_check(
            store.product_url(store.catalog.products[0].product_id)
        )
        for name in ("ms-0", "ms-1"):
            sheriff.distributor.mark_offline(name)
        sheriff.job_queue.pump()
        assert sheriff.job_queue.dead_lettered == 1

        supervisor.tick()
        (down,) = supervisor.audit.events(
            kind="component_down", component="jobqueue/dlq"
        )
        assert down.values["new_dead_letters"] == 1.0

    def test_direct_sheriff_has_no_queue_components(self):
        supervisor = build_supervisor(self._sheriff())
        assert "jobqueue" not in supervisor.components
        assert "jobqueue/dlq" not in supervisor.components
