"""Chaos-driven healing: every named profile, detected and healed.

The headline regression suite of the operations layer.  Part one drives
the supervisor by hand against a sheriff whose fault plan is rigged to
flap a known server deterministically, pinning the detect → schedule →
restart → converge sequence.  Part two replays **every** named chaos
profile in :data:`repro.net.faults.CHAOS_PROFILES` through a supervised
live deployment and asserts the system converges within a bounded
number of simulated seconds with zero permanently lost jobs.
"""

import pytest

from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.net.faults import CHAOS_PROFILES, FaultPlan, FaultRule
from repro.ops import RestartPolicy, build_supervisor
from repro.ops.supervisor import ESCALATED, RESTART_PENDING, UP
from repro.workloads.deployment import DeploymentConfig, LiveDeployment

from ..core.conftest import SMALL_IPC_SITES

#: simulated seconds a supervised deployment gets to finish healing
#: (matches the deployment's end-of-run heal budget)
HEAL_BOUND = 3600.0


def _flapping_sheriff(flap_duration=600.0, **kwargs):
    """A two-server sheriff whose plan flaps ``ms-0`` on the first draw."""
    world = SheriffWorld.create(seed=42)
    plan = FaultPlan(
        [FaultRule(kind="flap", probability=1.0, dst="ms-0",
                   flap_duration=flap_duration)],
        seed=5,
    )
    sheriff = PriceSheriff(
        world, n_measurement_servers=2, ipc_sites=SMALL_IPC_SITES,
        faults=plan, **kwargs,
    )
    return world, sheriff


class TestFlapHealing:
    def test_flap_is_detected_and_healed_by_a_restart(self):
        world, sheriff = _flapping_sheriff()
        supervisor = build_supervisor(sheriff)
        original = sheriff.measurement_servers["ms-0"]

        world.clock.advance(30.0)
        sheriff.coordinator.chaos_tick()     # ms-0 enters its flap window
        assert "ms-0" in sheriff.faults.flapping_hosts(world.clock.now)

        supervisor.tick()                     # detection: one tick, not one timeout
        comp = supervisor.component("ms-0")
        assert comp.state == RESTART_PENDING
        assert comp.last_reason == "host flapping"

        world.clock.advance(5.0)              # the flap-prevention delay
        assert supervisor.tick() == ["ms-0"]

        # the restart replaced the process and closed the flap window
        assert sheriff.measurement_servers["ms-0"] is not original
        assert sheriff.faults.flapping_hosts(world.clock.now) == []
        assert sheriff.distributor.server("ms-0").online
        supervisor.tick()
        assert comp.state == UP

        kinds = [e.kind for e in supervisor.audit.events(component="ms-0")]
        assert kinds == [
            "component_down", "restart_scheduled", "component_restarted",
        ]

    def test_heal_loop_converges_after_a_flap(self):
        world, sheriff = _flapping_sheriff()
        supervisor = build_supervisor(sheriff)
        world.clock.advance(30.0)
        sheriff.coordinator.chaos_tick()
        report = supervisor.heal(max_seconds=HEAL_BOUND, step=5.0)
        assert report.converged
        assert report.elapsed <= HEAL_BOUND
        assert supervisor.component("ms-0").restarts == 1

    def test_persistent_flapping_exhausts_budget_and_trips_killswitch(self):
        """A host that re-flaps after every restart must not be restart-
        looped: the budget runs dry, the (critical) escalation trips the
        kill-switch, and healing halts — all on the audit trail."""
        world, sheriff = _flapping_sheriff(flap_duration=600.0)
        supervisor = build_supervisor(
            sheriff,
            heartbeat_policy=RestartPolicy(delay=5.0, budget=2, window=7200.0),
        )
        world.clock.advance(30.0)
        # chaos_tick before every sweep re-draws the p=1.0 flap rule, so
        # every restart is immediately undone by a fresh flap window
        report = supervisor.heal(
            max_seconds=HEAL_BOUND, step=5.0,
            pre_tick=sheriff.coordinator.chaos_tick,
        )
        assert not report.converged
        comp = supervisor.component("ms-0")
        assert comp.state == ESCALATED
        assert comp.restarts == 2            # the budget, not a loop
        assert supervisor.killswitch.tripped
        counts = supervisor.audit.counts()
        assert counts["restart_budget_exhausted"] == 1
        assert counts["killswitch_tripped"] == 1
        assert counts["healing_halted"] == 1


@pytest.mark.parametrize("profile", sorted(CHAOS_PROFILES))
def test_supervised_deployment_heals_every_profile(profile):
    """The acceptance gate: a supervised deployment run under each named
    chaos profile converges within HEAL_BOUND simulated seconds and
    loses no job permanently."""
    config = DeploymentConfig.test_scale()
    config.n_requests = 16
    config.n_users = 10
    config.chaos_profile = None if profile == "none" else profile
    config.chaos_seed = 3
    config.supervised = True
    dataset = LiveDeployment(config).run()

    report = dataset.heal_report
    assert report is not None
    assert report.converged, f"unhealed components: {report.unhealthy}"
    assert report.elapsed <= HEAL_BOUND

    supervisor = dataset.supervisor
    assert supervisor.unhealthy_components() == []
    assert not supervisor.killswitch.tripped

    # zero permanently lost jobs: every admitted job reached a terminal
    # state, nothing is still parked on a dead server
    assert dataset.sheriff.coordinator.pending_jobs() == 0
    # and every attempted check resolved (result page or explicit
    # failure) — chaos may fail checks but may not swallow them
    assert dataset.n_resolved == dataset.n_attempted

    if profile == "none":
        # a clean supervised run is silent: no audit entries, no restarts
        assert len(supervisor.audit) == 0
        assert supervisor.status()["restarts"] == 0


def test_chaos_monkey_supervision_actually_observes_faults():
    """Guard against a vacuous gate: under chaos_monkey the fault plan
    injects real faults, and the supervised run still fully resolves."""
    config = DeploymentConfig.test_scale()
    config.n_requests = 16
    config.n_users = 10
    config.chaos_profile = "chaos_monkey"
    config.chaos_seed = 3
    config.supervised = True
    dataset = LiveDeployment(config).run()
    assert len(dataset.sheriff.faults.event_log()) > 0
    assert dataset.resolution_rate == 1.0
