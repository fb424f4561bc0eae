"""Pluggable alert notifiers for the operations layer.

When the supervisor restarts a component or the kill-switch trips,
someone has to hear about it.  A :class:`Notifier` receives each
:class:`repro.ops.audit.OpsEvent` once; :class:`NotifierFanout` delivers
one event to every registered notifier, isolating a broken notifier so
an alerting failure can never take the healing loop down with it.

Two concrete notifiers ship:

* :class:`LogNotifier` — collects human-readable lines (the operator
  console / test assertion surface);
* :class:`CallbackNotifier` — invokes an arbitrary callable (pager glue).

A JSON-lines file of every event is the audit trail's own job
(``AuditTrail(path=…)``, ``repro supervise --audit-out``).
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.ops.audit import OpsEvent

__all__ = [
    "CallbackNotifier",
    "LogNotifier",
    "Notifier",
    "NotifierFanout",
]


class Notifier:
    """Base class: receives each operations event exactly once."""

    def notify(self, event: OpsEvent) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class LogNotifier(Notifier):
    """Collects rendered alert lines (and optionally prints them)."""

    def __init__(self, echo: bool = False) -> None:
        self.echo = echo
        self.lines: List[str] = []

    def notify(self, event: OpsEvent) -> None:
        line = event.describe()
        self.lines.append(line)
        if self.echo:  # pragma: no cover - console side effect
            print(f"[ops] {line}")


class CallbackNotifier(Notifier):
    """Hands each event to a callable — the pager/chat-bot adapter."""

    def __init__(self, fn: Callable[[OpsEvent], None]) -> None:
        self.fn = fn

    def notify(self, event: OpsEvent) -> None:
        self.fn(event)


class NotifierFanout:
    """Delivers each event to every notifier, tolerating broken ones.

    A notifier that raises is counted in ``delivery_failures`` and the
    fan-out continues — alerting must never be able to crash (or stall)
    the supervisor that is trying to heal the deployment.
    """

    def __init__(self, notifiers: Tuple[Notifier, ...] = ()) -> None:
        self.notifiers: List[Notifier] = list(notifiers)
        self.delivered = 0
        self.delivery_failures = 0

    def add(self, notifier: Notifier) -> None:
        self.notifiers.append(notifier)

    def notify(self, event: OpsEvent) -> None:
        for notifier in self.notifiers:
            try:
                notifier.notify(event)
                self.delivered += 1
            except Exception:
                self.delivery_failures += 1
