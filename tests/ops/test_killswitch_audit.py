"""Kill-switch, audit trail, and the metrics mirror: exactly once each.

The auditability contract: every trip / restart / flap / escalation
event appears exactly once in the audit log AND exactly once in the
``sheriff_ops_*`` metric families — :meth:`AuditTrail.record` is the
single choke point, so the two surfaces cannot drift.  Plus the
persistence half of the kill-switch story: the JSONL trail on disk is
the in-memory trail, line for line, even for events recorded before a
crash would have struck.
"""

import json

import pytest

from repro.net.events import Clock
from repro.obs import Telemetry
from repro.ops import (
    AuditTrail,
    KillSwitch,
    LogNotifier,
    RestartPolicy,
    Supervisor,
)

from .conftest import CallableProbe, FlakyComponent


@pytest.fixture
def telemetry():
    telemetry = Telemetry()
    telemetry.bind_clock(Clock())
    return telemetry


def _event_counter_values(registry):
    counter = registry.get("sheriff_ops_events_total")
    if counter is None:
        return {}
    return {kind: state[0] for (kind,), state in counter.series()}


class TestAuditTrail:
    def test_events_are_sim_clock_stamped_and_sequenced(self):
        clock = Clock()
        audit = AuditTrail(clock)
        audit.record("component_down", "ms-0", "no heartbeat")
        clock.advance(42.0)
        audit.record("component_restarted", "ms-0")
        events = audit.events()
        assert [e.seq for e in events] == [0, 1]
        assert [e.time for e in events] == [0.0, 42.0]
        assert audit.counts() == {
            "component_down": 1, "component_restarted": 1,
        }

    def test_jsonl_persistence_is_immediate_and_complete(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        audit = AuditTrail(Clock(), path=str(path))
        audit.record("killswitch_tripped", "deployment", "spike")
        # on disk the moment it is recorded — the crash-safety property
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        audit.record("killswitch_reset", "operator")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["kind"] for line in lines] == [
            "killswitch_tripped", "killswitch_reset",
        ]
        assert lines[0]["component"] == "deployment"

    def test_export_jsonl_round_trips(self, tmp_path):
        audit = AuditTrail(Clock())
        audit.record("anomaly_detected", "error-spike", "+40 errors")
        out = tmp_path / "export.jsonl"
        with open(out, "w") as fh:
            assert audit.export_jsonl(fh) == 1
        row = json.loads(out.read_text())
        assert row["kind"] == "anomaly_detected"
        assert row["component"] == "error-spike"

    def test_metrics_mirror_counts_every_event_once(self, telemetry):
        audit = AuditTrail(Clock(), telemetry=telemetry)
        audit.record("component_down", "ms-0")
        audit.record("component_down", "ms-1")
        audit.record("killswitch_tripped", "deployment")
        assert _event_counter_values(telemetry.registry) == {
            "component_down": 2.0, "killswitch_tripped": 1.0,
        }
        assert audit.counts() == {
            "component_down": 2, "killswitch_tripped": 1,
        }


class TestKillSwitch:
    def test_trip_is_idempotent_and_audited_once(self):
        audit = AuditTrail(Clock())
        switch = KillSwitch(audit)
        assert switch.trip("first reason") is True
        assert switch.trip("second reason") is False
        assert switch.trip("third reason") is False
        assert switch.tripped
        assert switch.reason == "first reason"
        assert switch.trips == 1
        assert switch.suppressed_trips == 2
        assert len(audit.events(kind="killswitch_tripped")) == 1

    def test_reset_rearms_and_audits(self):
        audit = AuditTrail(Clock())
        switch = KillSwitch(audit)
        switch.trip("spike")
        switch.reset(operator="oncall")
        assert not switch.tripped
        assert switch.reason is None
        (event,) = audit.events(kind="killswitch_reset")
        assert event.component == "oncall"
        assert "spike" in event.detail
        # resetting an armed switch is a silent no-op
        switch.reset()
        assert len(audit.events(kind="killswitch_reset")) == 1
        # and the switch can trip again after a reset
        assert switch.trip("second incident") is True

    def test_trip_notifies_the_fanout(self):
        log = LogNotifier()
        supervisor = Supervisor(Clock(), notifiers=(log,))
        supervisor.killswitch.trip("manual stop")
        assert len(log.lines) == 1
        assert "killswitch_tripped" in log.lines[0]


class TestExactlyOnceThroughTheSupervisor:
    """Drive a full failure → restart → escalation → trip story and
    reconcile all three surfaces: audit log, metrics, notifier."""

    def test_every_event_lands_once_in_log_metrics_and_notifier(
        self, telemetry
    ):
        clock = Clock()
        log = LogNotifier()
        supervisor = Supervisor(clock, notifiers=(log,), telemetry=telemetry)
        flaky = FlakyComponent()
        supervisor.register(
            "comp",
            probes=(CallableProbe(flaky.probe),),
            restart=flaky.restart,
            critical=True,
            policy=RestartPolicy(delay=5.0, budget=2, window=86400.0),
        )

        flaky.fail(sticky_failures=10)   # restarts never stick
        for _ in range(10):
            supervisor.tick()
            clock.advance(60.0)

        counts = supervisor.audit.counts()
        # the full story, each chapter exactly as many times as it ran
        assert counts["component_down"] == 3       # initial + 2 failed restarts
        # the third failure escalates at scheduling time: only 2 schedules
        assert counts["restart_scheduled"] == 2
        assert counts["component_restarted"] == 2  # the budget
        assert counts["restart_budget_exhausted"] == 1
        assert counts["killswitch_tripped"] == 1
        assert counts["healing_halted"] == 1

        # metrics mirror the audit trail 1:1, kind by kind
        metric_counts = _event_counter_values(telemetry.registry)
        assert metric_counts == {k: float(v) for k, v in counts.items()}
        # the per-component restart counter agrees too
        restarts = telemetry.registry.get("sheriff_ops_restarts_total")
        assert restarts.value(component="comp") == 2.0

        # budget exhaustion escalated instead of restart-looping
        assert flaky.restarts == 2
        assert supervisor.killswitch.tripped

    def test_notifier_receives_alert_worthy_events_once(self):
        clock = Clock()
        log = LogNotifier()
        supervisor = Supervisor(clock, notifiers=(log,))
        flaky = FlakyComponent()
        supervisor.register(
            "comp", probes=(CallableProbe(flaky.probe),),
            restart=flaky.restart,
        )
        flaky.fail()
        supervisor.tick()            # component_down alert
        clock.advance(5.0)
        supervisor.tick()            # component_restarted alert
        supervisor.tick()            # healthy again: silence
        assert len(log.lines) == 2
        assert "component_down" in log.lines[0]
        assert "component_restarted" in log.lines[1]

    def test_component_up_gauge_tracks_state(self, telemetry):
        clock = Clock()
        supervisor = Supervisor(clock, telemetry=telemetry)
        flaky = FlakyComponent()
        supervisor.register(
            "comp", probes=(CallableProbe(flaky.probe),),
            restart=flaky.restart,
        )
        gauge = telemetry.registry.get("sheriff_ops_component_up")
        assert gauge.value(component="comp") == 1.0
        flaky.fail()
        supervisor.tick()
        assert gauge.value(component="comp") == 0.0
        clock.advance(5.0)
        supervisor.tick()            # restart heals it
        supervisor.tick()
        assert gauge.value(component="comp") == 1.0
