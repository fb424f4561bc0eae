"""The Supervisor: the watchdog that watches the watchdog service.

The paper's deployment was kept alive by operators applying "corrective
measures" by hand (App. 10.3).  This module automates the operator: a
:class:`Supervisor` holds one :class:`Component` per deployment part —
Measurement servers, the coordinator, the Database server, the IPC/PPC
fleets, the engine worker pools — each with liveness/health probes
(:mod:`repro.ops.health`), an optional restart action, and a
flap-prevention restart policy.

One :meth:`Supervisor.tick` is one supervision sweep at the current
simulated time:

1. every component's probes run (read-only, RNG-free);
2. a component that just went unhealthy is audited + alerted, and — if
   it has a restart action — a restart is *scheduled* after a delay
   that doubles with each consecutive failure (flap prevention: a
   flapping host is not hammered with instant restarts);
3. due restarts execute, within a sliding-window restart budget; a
   component that exhausts its budget is **escalated** instead of
   restart-looped, and a critical component's escalation trips the
   deployment kill-switch;
4. anomaly detectors (error-rate spike, pollution-budget blowout)
   run; a firing one is audited, alerted and trips the kill-switch.

Determinism: ticking never consumes any seeded RNG stream and never
advances a clock — supervision is pure observation plus explicitly
scheduled actions, so a supervised run stays seed-reproducible
(:mod:`tests.ops` pins restart-equivalence).  :meth:`Supervisor.heal`
*does* advance the simulated clock — it is the test harness's
"wait for convergence" loop, run after a workload finishes.

Name note: :class:`repro.core.watchdog.Watchdog` watches product
*prices* for the paper's Sect. 6 use case; this module watches the
*service*.  Both are exported from :mod:`repro` under distinct names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import NULL_TELEMETRY
from repro.ops.audit import AuditTrail
from repro.ops.health import ProbeResult
from repro.ops.killswitch import KillSwitch
from repro.ops.notifiers import Notifier, NotifierFanout

__all__ = [
    "Component",
    "HealReport",
    "RestartPolicy",
    "Supervisor",
    "UP",
    "DOWN",
    "RESTART_PENDING",
    "ESCALATED",
]

#: component lifecycle states
UP = "up"
DOWN = "down"                       # unhealthy, no restart action
RESTART_PENDING = "restart_pending"  # unhealthy, restart scheduled
ESCALATED = "escalated"             # restart budget exhausted


@dataclass(frozen=True)
class RestartPolicy:
    """Flap prevention: how eagerly one component may be restarted.

    The first restart waits ``delay`` simulated seconds after the
    failure is detected; each *consecutive* failure (a restart that did
    not stick) doubles the wait up to ``max_delay``.  At most ``budget``
    restarts may happen within any sliding ``window`` — beyond that the
    component escalates to a human instead of restart-looping.
    """

    delay: float = 5.0
    backoff_factor: float = 2.0
    max_delay: float = 600.0
    budget: int = 5
    window: float = 3600.0

    def restart_delay(self, consecutive_failures: int) -> float:
        exponent = max(0, consecutive_failures - 1)
        return min(self.max_delay, self.delay * self.backoff_factor ** exponent)


@dataclass
class Component:
    """One supervised deployment part."""

    name: str
    #: objects with ``check(now) -> ProbeResult``
    probes: Tuple[object, ...] = ()
    #: action that restarts the component (None = alert-only)
    restart: Optional[Callable[[], None]] = None
    #: escalation on a critical component trips the kill-switch
    critical: bool = False
    policy: RestartPolicy = field(default_factory=RestartPolicy)
    state: str = UP
    #: failures since the last healthy sighting (drives flap backoff)
    consecutive_failures: int = 0
    #: sim times of past restarts (pruned to the budget window)
    restart_times: List[float] = field(default_factory=list)
    pending_restart_at: Optional[float] = None
    last_reason: str = ""
    restarts: int = 0

    def probe(self, now: float) -> ProbeResult:
        """First failing probe wins; all-healthy means healthy."""
        for probe in self.probes:
            verdict = probe.check(now)
            if not verdict.healthy:
                return verdict
        return ProbeResult(healthy=True)

    def budget_left(self, now: float) -> int:
        self.restart_times = [
            t for t in self.restart_times if now - t <= self.policy.window
        ]
        return self.policy.budget - len(self.restart_times)

    def panel_row(self) -> Dict[str, object]:
        return {
            "Component": self.name,
            "State": self.state,
            "Restarts": self.restarts,
            "Detail": self.last_reason,
        }


@dataclass
class _AnomalyDetector:
    """A deployment-wide probe wired to the kill-switch."""

    name: str
    probe: object
    fired: bool = False


@dataclass(frozen=True)
class HealReport:
    """Outcome of one :meth:`Supervisor.heal` convergence loop."""

    converged: bool
    elapsed: float
    ticks: int
    unhealthy: Tuple[str, ...] = ()


class Supervisor:
    """Self-healing loop over a registry of supervised components."""

    def __init__(
        self,
        clock,
        audit: Optional[AuditTrail] = None,
        notifiers: Sequence[Notifier] = (),
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.clock = clock
        self.audit = (
            audit if audit is not None else AuditTrail(clock, telemetry=telemetry)
        )
        self.fanout = NotifierFanout(tuple(notifiers))
        self.killswitch = KillSwitch(self.audit, self.fanout)
        self.components: Dict[str, Component] = {}
        self._detectors: List[_AnomalyDetector] = []
        self.ticks = 0
        #: the SLO engine behind any slo/* components (wiring sets it)
        self.slo_engine = None
        self._halt_logged = False
        #: telemetry: the per-component up gauge and restart counter,
        #: read from the components (a caller-built ``audit`` keeps the
        #: telemetry it was built with)
        registry = telemetry.registry
        registry.sampled(
            "gauge", "sheriff_ops_component_up",
            "1 = component healthy, 0 = down/escalated", ("component",),
            lambda: {
                (c.name,): int(c.state == UP) for c in self.components.values()
            },
        )
        registry.sampled(
            "counter", "sheriff_ops_restarts_total",
            "Supervised restarts executed, per component", ("component",),
            lambda: {(c.name,): c.restarts for c in self.components.values()},
        )

    # -- registry ------------------------------------------------------------
    def register(
        self,
        name: str,
        probes: Sequence[object] = (),
        restart: Optional[Callable[[], None]] = None,
        critical: bool = False,
        policy: Optional[RestartPolicy] = None,
    ) -> Component:
        if name in self.components:
            raise ValueError(f"component {name!r} already supervised")
        component = Component(
            name=name,
            probes=tuple(probes),
            restart=restart,
            critical=critical,
            policy=policy if policy is not None else RestartPolicy(),
        )
        self.components[name] = component
        return component

    def add_anomaly_detector(self, name: str, probe: object) -> None:
        """A deployment-wide check that trips the kill-switch when it
        fires."""
        self._detectors.append(_AnomalyDetector(name=name, probe=probe))

    # -- the supervision sweep ----------------------------------------------
    def tick(self) -> List[str]:
        """One sweep at the current simulated time.

        Returns the names of components restarted this tick.  While the
        kill-switch is tripped the sweep is inert: probes still run (so
        state stays observable) but no restart is scheduled or executed.
        """
        self.ticks += 1
        now = self.clock.now
        restarted: List[str] = []
        halted = self.killswitch.tripped
        if halted and not self._halt_logged:
            self._notify(self.audit.record(
                "healing_halted", "supervisor",
                f"kill-switch tripped: {self.killswitch.reason}",
            ))
            self._halt_logged = True
        if not halted:
            self._halt_logged = False

        for component in self.components.values():
            verdict = component.probe(now)
            if verdict.healthy:
                self._on_healthy(component)
                continue
            component.last_reason = verdict.reason
            if component.state == UP:
                self._on_down(component, now, verdict, halted)
            elif (
                component.state == RESTART_PENDING
                and not halted
                and component.pending_restart_at is not None
                and now >= component.pending_restart_at
            ):
                self._execute_restart(component, now)
                restarted.append(component.name)
            elif (
                component.state == DOWN
                and not halted
                and component.restart is not None
            ):
                # healing resumed (kill-switch reset) for a component
                # that went down while the sweep was halted
                self._schedule_restart(component, now)

        for detector in self._detectors:
            self._run_detector(detector, now)
        return restarted

    def _notify(self, event) -> None:
        self.fanout.notify(event)

    def _on_healthy(self, component: Component) -> None:
        if component.state in (DOWN, RESTART_PENDING):
            # self-recovery: a flap window closed before the scheduled
            # restart fired (or an alert-only component came back)
            self._notify(self.audit.record(
                "component_recovered", component.name, component.last_reason
            ))
        if component.state != ESCALATED:
            # escalations stay latched until an operator resolves them
            component.state = UP
            component.consecutive_failures = 0
            component.pending_restart_at = None
            component.last_reason = ""

    def _on_down(
        self, component: Component, now: float, verdict: ProbeResult,
        halted: bool,
    ) -> None:
        component.consecutive_failures += 1
        self._notify(self.audit.record(
            "component_down", component.name, verdict.reason,
            values=verdict.metrics,
        ))
        if component.restart is None:
            component.state = DOWN
            return
        if halted:
            component.state = DOWN
            return
        self._schedule_restart(component, now)

    def _schedule_restart(self, component: Component, now: float) -> None:
        if component.budget_left(now) <= 0:
            self._escalate(component, now)
            return
        delay = component.policy.restart_delay(component.consecutive_failures)
        component.pending_restart_at = now + delay
        component.state = RESTART_PENDING
        self.audit.record(
            "restart_scheduled", component.name, f"in {delay:g}s"
        )

    def _execute_restart(self, component: Component, now: float) -> None:
        if component.budget_left(now) <= 0:
            self._escalate(component, now)
            return
        assert component.restart is not None
        component.restart()
        component.restart_times.append(now)
        component.restarts += 1
        component.pending_restart_at = None
        # optimistic: the next tick's probes either confirm (healthy,
        # counters reset) or schedule the next, longer-delayed restart
        component.state = UP
        self._notify(self.audit.record(
            "component_restarted", component.name,
            f"attempt {component.restarts}",
        ))

    def _escalate(self, component: Component, now: float) -> None:
        if component.state == ESCALATED:
            return
        component.state = ESCALATED
        component.pending_restart_at = None
        event = self.audit.record(
            "restart_budget_exhausted", component.name,
            f"{len(component.restart_times)} restarts within "
            f"{component.policy.window:g}s",
        )
        self._notify(event)
        if component.critical:
            self.killswitch.trip(
                f"critical component {component.name} exhausted its "
                f"restart budget",
                component=component.name,
            )

    def _run_detector(self, detector: _AnomalyDetector, now: float) -> None:
        verdict = detector.probe.check(now)
        if verdict.healthy:
            detector.fired = False
            return
        if detector.fired:
            return  # one audit entry per continuous anomaly episode
        detector.fired = True
        event = self.audit.record(
            "anomaly_detected", detector.name, verdict.reason,
            values=verdict.metrics,
        )
        self._notify(event)
        self.killswitch.trip(
            f"anomaly {detector.name}: {verdict.reason}",
            component=detector.name,
        )

    # -- convergence ---------------------------------------------------------
    def unhealthy_components(self) -> List[str]:
        return sorted(
            c.name for c in self.components.values() if c.state != UP
        )

    def heal(
        self,
        max_seconds: float = 600.0,
        step: float = 5.0,
        pre_tick: Optional[Callable[[], object]] = None,
    ) -> HealReport:
        """Advance simulated time until every component is healthy.

        The convergence loop of the chaos tests: step the clock, run
        ``pre_tick`` (typically ``coordinator.chaos_tick``, so heartbeat
        expiry keeps pace with the supervisor's view), then
        :meth:`tick`, until no component is unhealthy or ``max_seconds``
        of simulated time elapse.  Bounded by construction — it cannot
        hang, it returns a non-converged report instead.
        """
        start = self.clock.now
        ticks = 0
        while True:
            if pre_tick is not None:
                pre_tick()
            restarted = self.tick()
            ticks += 1
            unhealthy = self.unhealthy_components()
            # a tick that executed restarts never concludes the loop:
            # restarts leave the component optimistically UP, so at
            # least one more probe sweep must confirm they stuck
            if not unhealthy and not restarted:
                return HealReport(
                    converged=True, elapsed=self.clock.now - start, ticks=ticks
                )
            if self.clock.now - start >= max_seconds:
                return HealReport(
                    converged=False, elapsed=self.clock.now - start,
                    ticks=ticks, unhealthy=tuple(unhealthy),
                )
            self.clock.advance(step)

    # -- monitoring -----------------------------------------------------------
    def status(self) -> Dict[str, object]:
        states = [c.state for c in self.components.values()]
        return {
            "components": len(self.components),
            "healthy": states.count(UP),
            "escalated": states.count(ESCALATED),
            "restarts": sum(c.restarts for c in self.components.values()),
            "killswitch": "tripped" if self.killswitch.tripped else "armed",
            "audit_events": len(self.audit),
        }

    def monitoring_rows(self) -> List[Dict[str, object]]:
        """The operator panel: one row per supervised component."""
        return [c.panel_row() for c in self.components.values()]
