"""The operations audit trail: every self-healing action, on the record.

The paper's deployment was healed by hand — App. 10.3 describes the
operators' "corrective measures" but no log of when they fired.  The
supervisor automates those measures, and automation that restarts
services or trips a kill-switch must leave a paper trail: an operator
(or a regression test) has to be able to reconstruct *exactly* what the
machinery did and when, on the simulated clock.

:class:`AuditTrail` is that record.  It is append-only, stamped by the
injected clock (never wall time, so runs replay identically from their
seeds), optionally persisted as JSON lines, and read 1:1 by the
``sheriff_ops_events_total`` metric family: the family samples
:meth:`AuditTrail.counts` when it is scraped, so the metric cannot
drift from the log the tests compare.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, IO, List, Optional, Tuple

from repro.obs import NULL_TELEMETRY

__all__ = ["AuditTrail", "OpsEvent"]


@dataclass(frozen=True)
class OpsEvent:
    """One supervisor/kill-switch action, exactly once in the trail.

    ``values`` carries the triggering probe's metric snapshot (queue
    depth, error delta, burn rate …) so each alert line in the JSONL is
    self-explanatory — the operator sees the numbers that fired it, not
    just the prose.
    """

    seq: int
    time: float
    kind: str        # e.g. "component_down", "component_restarted",
                     # "restart_budget_exhausted", "killswitch_tripped"
    component: str
    detail: str = ""
    values: Dict[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        text = f"t={self.time:10.1f}  {self.kind:<26} {self.component}"
        return f"{text}  ({self.detail})" if self.detail else text


class AuditTrail:
    """Append-only, sim-clock-stamped log of operations events.

    ``path`` (optional) appends each event as one JSON line the moment
    it is recorded, so a crash mid-run still leaves the trail on disk —
    the persistence the kill-switch requires.
    """

    def __init__(
        self, clock, path: Optional[str] = None, telemetry=NULL_TELEMETRY
    ) -> None:
        self._clock = clock
        self._path = path
        self._events: List[OpsEvent] = []
        #: ``sheriff_ops_events_total{kind=}`` is the trail's tally
        telemetry.registry.sampled(
            "counter", "sheriff_ops_events_total",
            "Supervisor/kill-switch events, by kind", ("kind",),
            lambda: {(kind,): n for kind, n in self.counts().items()},
        )

    # -- recording ---------------------------------------------------------
    def record(
        self,
        kind: str,
        component: str,
        detail: str = "",
        values: Optional[Dict[str, float]] = None,
    ) -> OpsEvent:
        event = OpsEvent(
            seq=len(self._events), time=self._clock.now,
            kind=kind, component=component, detail=detail,
            values=dict(values) if values else {},
        )
        self._events.append(event)
        if self._path is not None:
            with open(self._path, "a") as fh:
                fh.write(json.dumps(asdict(event)) + "\n")
        return event

    # -- reading -----------------------------------------------------------
    def events(
        self, kind: Optional[str] = None, component: Optional[str] = None
    ) -> Tuple[OpsEvent, ...]:
        """Immutable snapshot, filterable, comparable across runs."""
        return tuple(
            e for e in self._events
            if (kind is None or e.kind == kind)
            and (component is None or e.component == component)
        )

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for event in self._events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return tally

    def __len__(self) -> int:
        return len(self._events)

    def export_jsonl(self, fh: IO[str]) -> int:
        """Write the whole trail as JSON lines; returns the line count."""
        for event in self._events:
            fh.write(json.dumps(asdict(event)) + "\n")
        return len(self._events)
