"""Unit tests of the Supervisor state machine.

Everything here runs on a bare :class:`repro.net.events.Clock` and
hand-cranked components — no deployment, no RNG.  The contract under
test: detection audits once per down episode, restarts wait out a
flap-prevention delay that doubles per consecutive failure, budgets
escalate instead of restart-looping, a tripped kill-switch halts (and a
reset resumes) healing, and ``heal`` is bounded by construction.
"""

import pytest

from repro.core.monitoring import ops_panel
from repro.ops import CallableProbe, RestartPolicy, Supervisor
from repro.ops.supervisor import DOWN, ESCALATED, RESTART_PENDING, UP



def _supervise(clock, flaky, policy=None, critical=False):
    supervisor = Supervisor(clock)
    supervisor.register(
        "comp",
        probes=(CallableProbe(flaky.probe, name="flaky"),),
        restart=flaky.restart,
        critical=critical,
        policy=policy or RestartPolicy(delay=5.0, budget=3, window=3600.0),
    )
    return supervisor


class TestRestartPolicy:
    def test_first_restart_waits_base_delay(self):
        policy = RestartPolicy(delay=5.0, backoff_factor=2.0, max_delay=600.0)
        assert policy.restart_delay(1) == 5.0

    def test_consecutive_failures_double_the_delay(self):
        policy = RestartPolicy(delay=5.0, backoff_factor=2.0, max_delay=600.0)
        assert [policy.restart_delay(n) for n in (1, 2, 3, 4)] == [
            5.0, 10.0, 20.0, 40.0,
        ]

    def test_delay_caps_at_max(self):
        policy = RestartPolicy(delay=5.0, backoff_factor=2.0, max_delay=30.0)
        assert policy.restart_delay(10) == 30.0


class TestDetectionAndRestart:
    def test_healthy_component_stays_up_and_silent(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        for _ in range(5):
            assert supervisor.tick() == []
            clock.advance(5.0)
        assert supervisor.component("comp").state == UP
        assert len(supervisor.audit) == 0

    def test_failure_schedules_restart_after_delay(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        flaky.fail()
        supervisor.tick()
        comp = supervisor.component("comp")
        assert comp.state == RESTART_PENDING
        assert comp.pending_restart_at == clock.now + 5.0
        assert supervisor.audit.counts() == {
            "component_down": 1, "restart_scheduled": 1,
        }
        # not yet due: nothing restarts
        clock.advance(4.0)
        assert supervisor.tick() == []
        assert flaky.restarts == 0
        # due: the restart runs and the component heals
        clock.advance(1.0)
        assert supervisor.tick() == ["comp"]
        assert flaky.restarts == 1
        assert comp.state == UP
        supervisor.tick()
        assert comp.consecutive_failures == 0

    def test_down_is_audited_once_per_episode(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        flaky.fail()
        supervisor.tick()   # detects
        clock.advance(1.0)
        supervisor.tick()   # still pending, no new component_down
        assert len(supervisor.audit.events(kind="component_down")) == 1

    def test_flap_backoff_doubles_across_consecutive_failures(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        comp = supervisor.component("comp")
        flaky.fail(sticky_failures=2)   # two restarts won't stick
        delays = []
        for _ in range(3):
            supervisor.tick()           # detect (or re-detect)
            delays.append(comp.pending_restart_at - clock.now)
            clock.advance(delays[-1])
            supervisor.tick()           # execute the due restart
        assert delays == [5.0, 10.0, 20.0]
        assert flaky.restarts == 3
        assert flaky.healthy

    def test_self_recovery_cancels_pending_restart(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        flaky.fail()
        supervisor.tick()
        # the component comes back on its own before the delay elapses
        flaky.healthy = True
        clock.advance(1.0)
        assert supervisor.tick() == []
        comp = supervisor.component("comp")
        assert comp.state == UP
        assert comp.pending_restart_at is None
        assert flaky.restarts == 0
        assert len(supervisor.audit.events(kind="component_recovered")) == 1

    def test_alert_only_component_goes_down_not_pending(self, clock):
        supervisor = Supervisor(clock)
        healthy = [False]
        supervisor.register(
            "watchable", probes=(CallableProbe(lambda now: healthy[0]),)
        )
        supervisor.tick()
        assert supervisor.component("watchable").state == DOWN
        assert supervisor.unhealthy_components() == ["watchable"]
        healthy[0] = True
        supervisor.tick()
        assert supervisor.component("watchable").state == UP

    def test_duplicate_registration_rejected(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        with pytest.raises(ValueError):
            supervisor.register("comp")


class TestBudgetAndEscalation:
    def test_budget_exhaustion_escalates_instead_of_looping(self, clock, flaky):
        supervisor = _supervise(
            clock, flaky,
            policy=RestartPolicy(delay=1.0, budget=2, window=3600.0),
        )
        comp = supervisor.component("comp")
        flaky.fail(sticky_failures=10)  # restarts never stick
        for _ in range(12):
            supervisor.tick()
            clock.advance(60.0)
        assert comp.state == ESCALATED
        # the budget bounded the restart attempts: no restart loop
        assert flaky.restarts == 2
        assert len(supervisor.audit.events(kind="restart_budget_exhausted")) == 1
        # escalation stays latched even if the component recovers
        flaky.healthy = True
        supervisor.tick()
        assert comp.state == ESCALATED
        assert supervisor.killswitch.tripped is False  # not critical

    def test_critical_escalation_trips_killswitch(self, clock, flaky):
        supervisor = _supervise(
            clock, flaky,
            policy=RestartPolicy(delay=1.0, budget=1, window=3600.0),
            critical=True,
        )
        flaky.fail(sticky_failures=10)
        for _ in range(6):
            supervisor.tick()
            clock.advance(60.0)
        assert supervisor.killswitch.tripped
        assert "comp" in supervisor.killswitch.reason
        assert len(supervisor.audit.events(kind="killswitch_tripped")) == 1

    def test_budget_window_slides(self, clock, flaky):
        supervisor = _supervise(
            clock, flaky,
            policy=RestartPolicy(delay=1.0, budget=1, window=100.0),
        )
        comp = supervisor.component("comp")
        # restart 1 inside the window
        flaky.fail()
        supervisor.tick()
        clock.advance(1.0)
        supervisor.tick()
        assert flaky.restarts == 1
        # past the window the budget refills: another restart is allowed
        clock.advance(200.0)
        supervisor.tick()
        flaky.fail()
        supervisor.tick()
        clock.advance(1.0)
        supervisor.tick()
        assert flaky.restarts == 2
        assert comp.state == UP


class TestKillSwitchHalt:
    def test_tripped_killswitch_halts_restarts(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        supervisor.killswitch.trip("operator says stop")
        flaky.fail()
        supervisor.tick()
        comp = supervisor.component("comp")
        assert comp.state == DOWN          # detected, not scheduled
        clock.advance(600.0)
        assert supervisor.tick() == []
        assert flaky.restarts == 0
        assert len(supervisor.audit.events(kind="healing_halted")) == 1

    def test_halt_is_audited_once_per_trip(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        supervisor.killswitch.trip("stop")
        for _ in range(5):
            supervisor.tick()
            clock.advance(5.0)
        assert len(supervisor.audit.events(kind="healing_halted")) == 1

    def test_reset_resumes_healing(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        supervisor.killswitch.trip("stop")
        flaky.fail()
        supervisor.tick()
        assert supervisor.component("comp").state == DOWN
        supervisor.killswitch.reset()
        supervisor.tick()                      # reschedules the restart
        assert supervisor.component("comp").state == RESTART_PENDING
        clock.advance(5.0)
        assert supervisor.tick() == ["comp"]
        assert flaky.healthy


class TestAnomalyDetectors:
    def test_kill_action_trips_killswitch(self, clock):
        supervisor = Supervisor(clock)
        anomalous = [False]
        supervisor.add_anomaly_detector(
            "spike", CallableProbe(lambda now: not anomalous[0], name="spike")
        )
        supervisor.tick()
        assert not supervisor.killswitch.tripped
        anomalous[0] = True
        supervisor.tick()
        assert supervisor.killswitch.tripped
        assert len(supervisor.audit.events(kind="anomaly_detected")) == 1

    def test_one_audit_per_continuous_episode(self, clock):
        supervisor = Supervisor(clock)
        anomalous = [True]
        supervisor.add_anomaly_detector(
            "spike", CallableProbe(lambda now: not anomalous[0])
        )
        for _ in range(4):
            supervisor.tick()
        assert len(supervisor.audit.events(kind="anomaly_detected")) == 1
        # episode ends, then a new one begins: a second entry
        anomalous[0] = False
        supervisor.tick()
        anomalous[0] = True
        supervisor.tick()
        assert len(supervisor.audit.events(kind="anomaly_detected")) == 2


class TestHeal:
    def test_heal_converges_and_reports(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        flaky.fail()
        report = supervisor.heal(max_seconds=600.0, step=5.0)
        assert report.converged
        assert flaky.healthy
        assert report.elapsed <= 600.0
        assert report.unhealthy == ()

    def test_heal_is_bounded_when_unhealable(self, clock):
        supervisor = Supervisor(clock)
        supervisor.register("dead", probes=(CallableProbe(lambda now: False),))
        report = supervisor.heal(max_seconds=60.0, step=5.0)
        assert not report.converged
        assert report.unhealthy == ("dead",)
        assert report.elapsed >= 60.0
        assert report.elapsed <= 60.0 + 5.0

    def test_heal_on_healthy_deployment_is_one_tick(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        report = supervisor.heal(max_seconds=600.0, step=5.0)
        assert report.converged
        assert report.ticks == 1
        assert report.elapsed == 0.0


class TestMonitoring:
    def test_status_and_rows(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        status = supervisor.status()
        assert status["components"] == 1
        assert status["healthy"] == 1
        assert status["killswitch"] == "armed"
        rows = supervisor.monitoring_rows()
        assert rows[0]["Component"] == "comp"
        assert rows[0]["State"] == UP

    def test_ops_panel_renders(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        flaky.fail()
        supervisor.tick()
        panel = ops_panel(supervisor)
        assert "Supervised components" in panel
        assert "comp" in panel
        assert "restart_pending" in panel
        assert "kill-switch: armed" in panel

    def test_unregister_removes_component(self, clock, flaky):
        supervisor = _supervise(clock, flaky)
        supervisor.unregister("comp")
        assert supervisor.components == {}
        supervisor.tick()   # no error on an empty registry
