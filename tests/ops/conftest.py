"""Fixtures for the self-healing operations layer tests."""

import pytest

from repro.net.events import Clock
from repro.ops.health import OK, ProbeResult


class CallableProbe:
    """Adapts ``fn(now) -> bool | ProbeResult`` into a probe."""

    def __init__(self, fn, name: str = "probe") -> None:
        self.fn = fn
        self.name = name

    def check(self, now: float) -> ProbeResult:
        verdict = self.fn(now)
        if isinstance(verdict, ProbeResult):
            return verdict
        return OK if verdict else ProbeResult(False, f"{self.name} failed")


class FlakyComponent:
    """A hand-cranked component: tests flip it down, restarts fix it.

    ``sticky_failures`` makes the next N restarts *not* stick — the
    component stays unhealthy after restarting, which is how the flap
    backoff and restart-budget paths get exercised deterministically.
    """

    def __init__(self):
        self.healthy = True
        self.restarts = 0
        self.sticky_failures = 0

    def fail(self, sticky_failures: int = 0):
        self.healthy = False
        self.sticky_failures = sticky_failures

    def restart(self):
        self.restarts += 1
        if self.sticky_failures > 0:
            self.sticky_failures -= 1
        else:
            self.healthy = True

    def probe(self, now):
        return self.healthy


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def flaky():
    return FlakyComponent()
