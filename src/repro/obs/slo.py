"""Service-level objectives over the telemetry plane.

The paper pitches $heriff as a *deployed service*: operators promise
"95% of price checks finish within two simulated minutes" and need to
know — before users complain — whether the promise holds and how fast
the error budget is burning.  This module turns those promises into
declared :class:`SLO` objects evaluated against live metrics
snapshots, entirely on the simulated clock.

Two SLO kinds:

* **latency** — a good event is an observation ≤ ``threshold`` seconds
  in the named histogram; the good count comes from
  :meth:`Histogram.count_le`, which is conservative (observations in
  the bucket straddling the threshold are not credited), so compliance
  is never over-reported;
* **availability** — good and bad events are counted by two metrics
  (counter or histogram); compliance is ``good / (good + bad)``.

Evaluation is a pure read of the registry: no RNG, no clock advance,
no control-flow change — the determinism contract of the whole
telemetry plane.  Burn-rate *probes* (windowed, delta-based, for the
supervisor's alert-only components) live in :mod:`repro.ops.health`
next to the other probes; they read through :meth:`SLOEngine.counts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "SLO",
    "SLOEngine",
    "SLOStatus",
    "build_default_slos",
]


@dataclass(frozen=True)
class SLO:
    """One declared objective over the metrics plane."""

    name: str
    #: "latency" or "availability"
    kind: str
    #: target good-event fraction in [0, 1), e.g. 0.95
    objective: float
    #: latency: the histogram of durations; availability: the
    #: good-event metric (counter value or histogram observation count)
    metric: str
    #: latency only — a good event is an observation ≤ threshold seconds
    threshold: float = 0.0
    #: availability only — the bad-event metric
    bad_metric: str = ""
    #: label filter applied to ``bad_metric`` (e.g. only
    #: ``event="job_failed"`` out of a recovery counter)
    bad_labels: Tuple[Tuple[str, str], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "availability"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"SLO {self.name!r} objective {self.objective!r} "
                "must be in (0, 1)"
            )
        if self.kind == "latency" and self.threshold <= 0.0:
            raise ValueError(f"latency SLO {self.name!r} needs a threshold")
        if self.kind == "availability" and not self.bad_metric:
            raise ValueError(
                f"availability SLO {self.name!r} needs a bad_metric"
            )

    @property
    def error_budget(self) -> float:
        """The tolerated bad-event fraction, ``1 - objective``."""
        return 1.0 - self.objective


@dataclass
class SLOStatus:
    """One SLO's compliance snapshot at a sim-clock instant."""

    name: str
    kind: str
    objective: float
    time: float
    good: float
    total: float
    description: str = ""

    @property
    def compliance(self) -> float:
        """Good-event fraction; vacuously 1.0 with no events."""
        return self.good / self.total if self.total > 0 else 1.0

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective

    @property
    def budget_consumed(self) -> float:
        """Fraction of the error budget burned so far (can exceed 1.0).

        Equivalently the *cumulative burn rate*: 1.0 means bad events
        arrived exactly at the tolerated rate over the whole window.
        """
        return (1.0 - self.compliance) / self.error_budget

    @property
    def met(self) -> bool:
        return self.compliance >= self.objective

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "time": round(self.time, 6),
            "good": self.good,
            "total": self.total,
            "compliance": round(self.compliance, 6),
            "error_budget": round(self.error_budget, 6),
            "budget_consumed": round(self.budget_consumed, 6),
            "met": self.met,
            "description": self.description,
        }


class SLOEngine:
    """Declared SLOs evaluated against one deployment's registry."""

    def __init__(self, registry, clock) -> None:
        self.registry = registry
        self.clock = clock
        self._slos: Dict[str, SLO] = {}

    # -- declaration -------------------------------------------------------
    def declare(self, slo: SLO) -> SLO:
        if slo.name in self._slos:
            raise ValueError(f"SLO {slo.name!r} already declared")
        self._slos[slo.name] = slo
        return slo

    def declare_latency(
        self,
        name: str,
        metric: str,
        threshold: float,
        objective: float,
        description: str = "",
    ) -> SLO:
        return self.declare(SLO(
            name=name, kind="latency", objective=objective, metric=metric,
            threshold=threshold, description=description,
        ))

    def declare_availability(
        self,
        name: str,
        good_metric: str,
        bad_metric: str,
        objective: float,
        bad_labels: Tuple[Tuple[str, str], ...] = (),
        description: str = "",
    ) -> SLO:
        return self.declare(SLO(
            name=name, kind="availability", objective=objective,
            metric=good_metric, bad_metric=bad_metric,
            bad_labels=bad_labels, description=description,
        ))

    def slos(self) -> List[SLO]:
        return list(self._slos.values())

    def get(self, name: str) -> Optional[SLO]:
        return self._slos.get(name)

    # -- evaluation --------------------------------------------------------
    def _events(
        self, metric_name: str, labels: Tuple[Tuple[str, str], ...] = ()
    ) -> float:
        """Event count carried by one metric (0.0 if never emitted)."""
        instrument = self.registry.get(metric_name)
        if instrument is None:
            return 0.0
        if getattr(instrument, "kind", "") == "histogram":
            return float(instrument.total_count())
        if labels:
            return float(instrument.value(**dict(labels)))
        return float(instrument.total)

    def counts(self, name: str) -> Tuple[float, float]:
        """``(good, total)`` event counts for one declared SLO."""
        slo = self._slos[name]
        if slo.kind == "latency":
            instrument = self.registry.get(slo.metric)
            if instrument is None:
                return 0.0, 0.0
            total = float(instrument.total_count())
            good = float(instrument.count_le(slo.threshold))
            return good, total
        good = self._events(slo.metric)
        bad = self._events(slo.bad_metric, slo.bad_labels)
        return good, good + bad

    def status(self, name: str) -> SLOStatus:
        slo = self._slos[name]
        good, total = self.counts(name)
        return SLOStatus(
            name=slo.name,
            kind=slo.kind,
            objective=slo.objective,
            time=self.clock.now,
            good=good,
            total=total,
            description=slo.description,
        )

    def evaluate(self) -> List[SLOStatus]:
        """Every declared SLO's status, in declaration order."""
        return [self.status(name) for name in self._slos]

    def report(self) -> Dict[str, object]:
        """JSON-ready snapshot (the ``repro slo`` / CI artifact shape)."""
        statuses = self.evaluate()
        return {
            "time": round(self.clock.now, 6),
            "slos": [s.to_dict() for s in statuses],
            "all_met": all(s.met for s in statuses),
        }


def build_default_slos(
    engine: SLOEngine,
    check_latency_threshold: float = 160.0,
    check_latency_objective: float = 0.90,
) -> SLOEngine:
    """Declare the stock $heriff objectives on ``engine``.

    Thresholds are simulated seconds; they bracket the healthy fleet's
    fetch fan-out (seconds to a couple of minutes on the sim clock) so
    a fault-injected latency degradation burns budget while a clean run
    does not.
    """
    engine.declare_latency(
        "check-latency",
        metric="sheriff_check_latency_seconds",
        threshold=check_latency_threshold,
        objective=check_latency_objective,
        description="price checks finishing within the latency promise",
    )
    engine.declare_latency(
        "queue-wait",
        metric="sheriff_queue_wait_seconds",
        threshold=40.0,
        objective=0.90,
        description="queued jobs dispatched without excessive outbox dwell",
    )
    engine.declare_availability(
        "job-availability",
        good_metric="sheriff_job_turnaround_seconds",
        bad_metric="sheriff_coordinator_recovery_total",
        bad_labels=(("event", "job_failed"),),
        objective=0.99,
        description="jobs completing rather than failing outright",
    )
    return engine
