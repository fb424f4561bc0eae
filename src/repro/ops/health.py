"""Health probes: how the supervisor decides a component is alive.

Each probe answers one narrow question against live deployment state —
is this Measurement server heartbeating, is this engine queue bounded,
is the Database server still taking writes, is the error rate spiking, are
the doppelgangers polluted past their budget.  Probes are **read-only
and RNG-free**: they may inspect clocks, metrics, and component state,
but they never consume a seeded RNG stream or advance simulated time,
so supervising a run cannot perturb its rows (the restart-equivalence
property the ops tests pin down).

In particular :class:`HeartbeatProbe` reads
:meth:`repro.net.faults.FaultPlan.flapping_hosts` — the RNG-free view
of the flap table — never :meth:`~repro.net.faults.FaultPlan.host_down`,
which gives flap rules a fresh random draw on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

__all__ = [
    "DatabaseStalenessProbe",
    "DeadLetterProbe",
    "ErrorRateProbe",
    "HeartbeatProbe",
    "JobQueueBacklogProbe",
    "PollutionBudgetProbe",
    "ProbeResult",
    "QueueDepthProbe",
    "SLOBurnRateProbe",
]


@dataclass(frozen=True)
class ProbeResult:
    """One probe verdict: healthy or not, with the observed value.

    ``metrics`` is the probe's snapshot of the numbers behind the
    verdict (queue depth, error delta, burn rate …) — the audit trail
    copies it onto the alert event so the JSONL is self-explanatory.
    """

    healthy: bool
    reason: str = ""
    value: float = 0.0
    metrics: Dict[str, float] = field(default_factory=dict)


OK = ProbeResult(healthy=True)


class HeartbeatProbe:
    """Is the Measurement server online and outside any flap window?

    Combines the distributor's view (heartbeat-expired servers are
    marked offline) with the fault plan's flap table, so a server that
    just entered a flap window reads as down *before* the heartbeat
    timeout elapses — detection latency is one supervisor tick, not one
    timeout.
    """

    def __init__(self, distributor, name: str, faults=None) -> None:
        self.distributor = distributor
        self.name = name
        self.faults = faults

    def check(self, now: float) -> ProbeResult:
        record = self.distributor.server(self.name)
        age = now - record.last_seen
        if not record.online:
            return ProbeResult(
                False, "heartbeat expired", 0.0,
                metrics={"heartbeat_age_s": age},
            )
        if self.faults is not None and self.name in self.faults.flapping_hosts(now):
            return ProbeResult(
                False, "host flapping", 0.0,
                metrics={"heartbeat_age_s": age},
            )
        return OK


class QueueDepthProbe:
    """Is the server's engine fetch queue bounded?

    A queue deeper than ``max_queued`` means fetch tasks are piling up
    faster than the worker pool drains them — the Table-1 saturation
    regime.  The heal action for this probe is a drain, not a restart.
    """

    def __init__(self, engine, server_name: str, max_queued: int = 64) -> None:
        self.engine = engine
        self.server_name = server_name
        self.max_queued = max_queued

    def check(self, now: float) -> ProbeResult:
        depth = self.engine.pool_for(self.server_name).queued
        snapshot = {"queue_depth": float(depth),
                    "max_queued": float(self.max_queued)}
        if depth > self.max_queued:
            return ProbeResult(
                False, f"queue depth {depth} > {self.max_queued}",
                float(depth), metrics=snapshot,
            )
        return ProbeResult(True, value=float(depth), metrics=snapshot)


class ErrorRateProbe:
    """Is a cumulative error counter growing faster than allowed?

    ``sample`` returns the counter's current cumulative value (e.g.
    ``lambda: coordinator.jobs_failed``, or a ``repro.obs`` counter
    read).  Each check measures the delta since the previous check —
    a per-tick window — and flags when it exceeds ``max_delta``.
    The first check only establishes the baseline.
    """

    def __init__(
        self, sample: Callable[[], float], max_delta: float, name: str = "errors"
    ) -> None:
        self.sample = sample
        self.max_delta = max_delta
        self.name = name
        self._last: Optional[float] = None

    def check(self, now: float) -> ProbeResult:
        current = float(self.sample())
        previous, self._last = self._last, current
        if previous is None:
            return ProbeResult(True, value=0.0)
        delta = current - previous
        snapshot = {"delta": delta, "cumulative": current,
                    "max_delta": self.max_delta}
        if delta > self.max_delta:
            return ProbeResult(
                False,
                f"{self.name} rate spike: +{delta:g} > {self.max_delta:g} per tick",
                delta, metrics=snapshot,
            )
        return ProbeResult(True, value=delta, metrics=snapshot)


class DatabaseStalenessProbe:
    """Has the Database server taken a write recently enough?

    Staleness is measured against the server's ``last_write_time`` —
    stamped from the rows' own ``time`` fields, so the probe needs no
    clock plumbing into the storage layer.  A server that has never been
    written is healthy: an empty deployment is not a failing one.
    """

    def __init__(self, db, max_age: float = 3600.0) -> None:
        self.db = db
        self.max_age = max_age

    def check(self, now: float) -> ProbeResult:
        last = self.db.last_write_time
        if last is None:
            return OK
        age = now - last
        snapshot = {"staleness_s": age, "max_age_s": self.max_age}
        if age > self.max_age:
            return ProbeResult(
                False, f"no write for {age:g}s > {self.max_age:g}s", age,
                metrics=snapshot,
            )
        return ProbeResult(True, value=age, metrics=snapshot)


class PollutionBudgetProbe:
    """Are too many doppelgangers saturated past their pollution budget?

    Reads :meth:`repro.profiles.doppelganger.Doppelganger.saturated_fraction`
    over the whole fleet; blowing past ``max_fraction`` means served
    profiles no longer look like their clusters — an anomaly worth a
    kill-switch, since continuing to serve them pollutes measurements.
    """

    def __init__(self, dopp_manager, max_fraction: float = 0.5) -> None:
        self.dopp_manager = dopp_manager
        self.max_fraction = max_fraction

    def check(self, now: float) -> ProbeResult:
        dopps = self.dopp_manager.doppelgangers()
        if not dopps:
            return OK
        saturated = sum(1 for d in dopps if d.needs_regeneration())
        fraction = saturated / len(dopps)
        snapshot = {"saturated": float(saturated), "fleet": float(len(dopps)),
                    "fraction": fraction, "max_fraction": self.max_fraction}
        if fraction > self.max_fraction:
            return ProbeResult(
                False,
                f"{saturated}/{len(dopps)} doppelgangers saturated "
                f"(> {self.max_fraction:.0%})",
                fraction, metrics=snapshot,
            )
        return ProbeResult(True, value=fraction, metrics=snapshot)


class JobQueueBacklogProbe:
    """Is the queued measurement tier's outbox near its admission limit?

    Reads the tier's current depth against ``max_depth``; a sustained
    backlog above ``max_fraction`` of the limit means admission control
    is about to start shedding — worth an alert *before* clients see
    :class:`~repro.core.errors.QueueSaturated`.  Alert-only: the queue
    drains itself on the next poll, there is nothing to restart.
    """

    def __init__(self, tier, max_fraction: float = 0.9) -> None:
        self.tier = tier
        self.max_fraction = max_fraction

    def check(self, now: float) -> ProbeResult:
        depth = self.tier.queue.depth
        limit = self.tier.max_depth
        fraction = depth / limit if limit else 0.0
        snapshot = {"backlog": float(depth), "max_depth": float(limit),
                    "fraction": fraction}
        if fraction > self.max_fraction:
            return ProbeResult(
                False,
                f"queue backlog {depth}/{limit} (> {self.max_fraction:.0%})",
                fraction, metrics=snapshot,
            )
        return ProbeResult(True, value=fraction, metrics=snapshot)


class DeadLetterProbe:
    """Did the queue tier fail any queued jobs since the last check?

    Delta-style like :class:`ErrorRateProbe`: each check compares the
    tier's ``dead_lettered`` count (queued jobs whose record the
    Coordinator failed before dispatch) against the previous tick and
    flags any growth.  The baseline is the count when the probe is
    built, so failures that predate the probe stay quiet while one
    before the first check still alerts.  Each is terminal — a job
    whose retry budget ran dry or that found no online server — so no
    growth is tolerated.
    """

    def __init__(self, tier) -> None:
        self.tier = tier
        self._last = tier.dead_lettered

    def check(self, now: float) -> ProbeResult:
        current = self.tier.dead_lettered
        previous, self._last = self._last, current
        delta = current - previous
        snapshot = {"new_dead_letters": float(delta),
                    "total_dead_letters": float(current)}
        if delta > 0:
            return ProbeResult(
                False,
                f"{delta} new dead-lettered job(s) this tick",
                float(delta), metrics=snapshot,
            )
        return ProbeResult(True, value=float(delta), metrics=snapshot)


class SLOBurnRateProbe:
    """Is an SLO's error budget burning faster than tolerated?

    Windowed like :class:`ErrorRateProbe`: each check reads the SLO's
    cumulative ``(good, total)`` event counts from a
    :class:`repro.obs.slo.SLOEngine` and computes the *burn rate* over
    the delta since the previous check —

        ``burn = (bad_delta / total_delta) / error_budget``

    — so 1.0 means bad events arrived exactly at the rate that would
    exhaust the budget over the compliance window, and ``max_burn_rate``
    is the alerting multiple (Google's SRE workbook pages at 1–14×
    depending on window).  The first check only establishes the
    baseline; a tick with no new events is healthy (no traffic burns no
    budget).  Read-only and RNG-free like every probe: alert-only
    components wear it, nothing restarts over a latency promise.
    """

    def __init__(self, engine, slo_name: str, max_burn_rate: float = 1.0) -> None:
        self.engine = engine
        self.slo_name = slo_name
        self.max_burn_rate = max_burn_rate
        self._last: Optional[tuple] = None

    def check(self, now: float) -> ProbeResult:
        good, total = self.engine.counts(self.slo_name)
        previous, self._last = self._last, (good, total)
        if previous is None:
            return ProbeResult(True, value=0.0)
        good_delta = good - previous[0]
        total_delta = total - previous[1]
        if total_delta <= 0:
            return ProbeResult(True, value=0.0)
        slo = self.engine.get(self.slo_name)
        bad_delta = total_delta - good_delta
        burn = (bad_delta / total_delta) / slo.error_budget
        snapshot = {
            "burn_rate": burn,
            "bad_delta": bad_delta,
            "total_delta": total_delta,
            "error_budget": slo.error_budget,
            "max_burn_rate": self.max_burn_rate,
        }
        if burn > self.max_burn_rate:
            return ProbeResult(
                False,
                f"SLO {self.slo_name!r} burn rate {burn:.2f}x "
                f"> {self.max_burn_rate:g}x budget",
                burn, metrics=snapshot,
            )
        return ProbeResult(True, value=burn, metrics=snapshot)
