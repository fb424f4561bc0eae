"""The deployment kill-switch.

Some anomalies must *stop* the machine, not heal it: an error-rate
spike across the fleet, a pollution-budget blowout.  Restarting
components through those is how an automated operations layer turns
one bad input into a measurement-corrupting restart storm.  The
kill-switch is the circuit breaker: once tripped,
the supervisor stops restarting anything until an operator resets it,
and both transitions land in the persistent audit trail and every
registered notifier.

Tripping is idempotent — the first trip records and alerts, repeats
while already tripped are counted but stay silent, so the audit trail
holds each trip exactly once.
"""

from __future__ import annotations

from typing import Optional

from repro.ops.audit import AuditTrail
from repro.ops.notifiers import NotifierFanout

__all__ = ["KillSwitch"]


class KillSwitch:
    """A latched stop for the self-healing machinery."""

    def __init__(
        self, audit: AuditTrail, fanout: Optional[NotifierFanout] = None
    ) -> None:
        self.audit = audit
        self.fanout = fanout if fanout is not None else NotifierFanout()
        self._tripped = False
        self.reason: Optional[str] = None
        self.trips = 0
        #: trip() calls absorbed while already tripped (audited once)
        self.suppressed_trips = 0

    @property
    def tripped(self) -> bool:
        return self._tripped

    def trip(self, reason: str, component: str = "deployment") -> bool:
        """Latch the switch; returns True when this call did the trip."""
        if self._tripped:
            self.suppressed_trips += 1
            return False
        self._tripped = True
        self.reason = reason
        self.trips += 1
        event = self.audit.record("killswitch_tripped", component, reason)
        self.fanout.notify(event)
        return True

    def reset(self, operator: str = "operator") -> None:
        """Operator action: re-arm the switch (audited and alerted)."""
        if not self._tripped:
            return
        self._tripped = False
        previous, self.reason = self.reason, None
        event = self.audit.record(
            "killswitch_reset", operator, f"was: {previous}"
        )
        self.fanout.notify(event)
