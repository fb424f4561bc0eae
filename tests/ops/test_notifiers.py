"""Notifier fan-out: every alert reaches every channel, and broken ones
cannot take the healing loop down."""

import json

import pytest

from repro.net.events import Clock
from repro.ops import (
    AuditTrail,
    CallbackNotifier,
    LogNotifier,
    Notifier,
    NotifierFanout,
    OpsEvent,
)


@pytest.fixture
def event():
    return OpsEvent(
        seq=0, time=120.0, kind="component_restarted", component="ms-1",
        detail="attempt 1",
    )


class TestConcreteNotifiers:
    def test_log_notifier_collects_lines(self, event):
        log = LogNotifier()
        log.notify(event)
        assert len(log.lines) == 1
        assert "component_restarted" in log.lines[0]
        assert "ms-1" in log.lines[0]

    def test_callback_notifier_invokes_fn(self, event):
        seen = []
        CallbackNotifier(seen.append).notify(event)
        assert seen == [event]

    def test_base_notifier_is_abstract(self, event):
        with pytest.raises(NotImplementedError):
            Notifier().notify(event)


class TestFanout:
    def test_every_notifier_receives_every_event(self, event):
        log_a, log_b = LogNotifier(), LogNotifier()
        fanout = NotifierFanout((log_a,))
        fanout.add(log_b)
        fanout.notify(event)
        fanout.notify(event)
        assert len(log_a.lines) == len(log_b.lines) == 2
        assert fanout.delivered == 4
        assert fanout.delivery_failures == 0

    def test_broken_notifier_is_isolated(self, event):
        class Broken(Notifier):
            def notify(self, event):
                raise RuntimeError("pager service is down")

        log = LogNotifier()
        fanout = NotifierFanout((Broken(), log, Broken()))
        fanout.notify(event)        # must not raise
        assert log.lines            # the healthy channel still delivered
        assert fanout.delivered == 1
        assert fanout.delivery_failures == 2

    def test_audit_driven_fanout_end_to_end(self, tmp_path):
        """The wiring the supervisor uses: one audit record, persisted as
        one JSON line by the trail and fanned to a log and a callback —
        one delivery each."""
        clock = Clock()
        path = tmp_path / "audit.jsonl"
        audit = AuditTrail(clock, path=str(path))
        log = LogNotifier()
        seen = []
        fanout = NotifierFanout((log, CallbackNotifier(seen.append)))
        fanout.notify(audit.record("killswitch_tripped", "deployment", "spike"))
        assert len(log.lines) == 1
        assert len(seen) == 1
        (row,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert row["kind"] == "killswitch_tripped"
        assert row["component"] == "deployment"
        assert fanout.delivered == 2
