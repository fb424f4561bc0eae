"""The *price* watchdog: continuous product monitoring with alerts.

The paper's framing — "our software has 'watchdog' value" — implies an
ongoing service, not one-shot checks: users (or regulators) keep a
watchlist of products and want to be told when a retailer *starts*
fiddling with prices, changes tactic, or escalates.  This module layers
exactly that on top of the price-check pipeline:

* a watchlist of product URLs;
* periodic re-checks (the caller drives cadence via the simulation
  clock, or wall-clock in a real deployment);
* alerts when a product first shows variation, when its classification
  changes (e.g. ``none`` → ``within-country``), when the spread moves
  by more than :data:`SPREAD_ALERT_DELTA`, or when a check fails;
* a per-product history of (time, classification, spread) for audits.

Whether a product's prices differ, and how, is
:func:`repro.core.detector.analyze_rows` — the add-on's own verdict —
so an alert fires exactly when the published verdict changes.

Naming note — two watchdogs live in this codebase, and they watch
different things:

* :class:`Watchdog` (this module) watches **product prices** for the
  user-facing Sect. 6 service;
* :class:`repro.ops.supervisor.Supervisor` watches **the deployment
  itself** — heartbeats, restarts, kill-switch — i.e. the watchdog's
  watchdog.

Both are exported from :mod:`repro` under those distinct names; when a
doc says "watchdog" unqualified it means this price watcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.detector import analyze_rows
from repro.core.errors import SheriffError

#: a spread that moves by more than this between cycles raises an alert
SPREAD_ALERT_DELTA = 0.05


@dataclass
class WatchAlert:
    """One actionable change on a watched product."""

    url: str
    time: float
    #: "variation-detected" | "classification-change" | "spread-change"
    #: | "check-failed"
    kind: str
    previous_classification: Optional[str]
    classification: Optional[str]
    spread: Optional[float]
    error: Optional[str] = None

    def describe(self) -> str:
        if self.kind == "check-failed":
            return f"[{self.url}] price check failed: {self.error}"
        if self.kind == "variation-detected":
            return (
                f"[{self.url}] price variation detected: "
                f"{self.classification} (spread {100 * self.spread:.1f}%)"
            )
        if self.kind == "classification-change":
            return (
                f"[{self.url}] classification changed: "
                f"{self.previous_classification} → {self.classification}"
            )
        return (
            f"[{self.url}] spread moved to {100 * self.spread:.1f}% "
            f"({self.classification})"
        )


@dataclass
class _WatchState:
    label: str
    last_classification: Optional[str] = None
    last_spread: Optional[float] = None
    history: List[Tuple[float, str, float]] = field(default_factory=list)


class Watchdog:
    """A watchlist bound to one add-on (the monitoring user)."""

    def __init__(self, addon, geodb) -> None:
        self._addon = addon
        self._geodb = geodb
        self._watches: Dict[str, _WatchState] = {}

    # -- watchlist management -----------------------------------------------
    def add_watch(self, url: str, label: str = "") -> None:
        if url not in self._watches:
            self._watches[url] = _WatchState(label=label or url)

    def remove_watch(self, url: str) -> None:
        self._watches.pop(url, None)

    @property
    def watched_urls(self) -> List[str]:
        return list(self._watches)

    def history(self, url: str) -> List[Tuple[float, str, float]]:
        return list(self._watches[url].history)

    # -- one monitoring cycle -----------------------------------------------
    def run_cycle(self) -> List[WatchAlert]:
        """Re-check every watched product; return the alerts raised.

        A check that fails with a :class:`SheriffError` raises a
        ``check-failed`` alert and leaves that product's state and
        history as they were; the other products are still checked.
        """
        alerts: List[WatchAlert] = []
        for url, state in self._watches.items():
            try:
                result = self._addon.check_price(url)
            except SheriffError as exc:
                alerts.append(WatchAlert(
                    url=url, time=self._addon.coordinator.clock.now,
                    kind="check-failed",
                    previous_classification=state.last_classification,
                    classification=None, spread=None, error=str(exc),
                ))
                continue
            report = analyze_rows(result.rows, self._geodb)
            spread = report.overall_spread
            classification = report.classification
            state.history.append((result.time, classification, spread))

            if state.last_classification is None:
                if classification != "none":
                    alerts.append(WatchAlert(
                        url=url, time=result.time, kind="variation-detected",
                        previous_classification=None,
                        classification=classification, spread=spread,
                    ))
            elif classification != state.last_classification:
                alerts.append(WatchAlert(
                    url=url, time=result.time, kind="classification-change",
                    previous_classification=state.last_classification,
                    classification=classification, spread=spread,
                ))
            elif (
                state.last_spread is not None
                and abs(spread - state.last_spread) > SPREAD_ALERT_DELTA
            ):
                alerts.append(WatchAlert(
                    url=url, time=result.time, kind="spread-change",
                    previous_classification=state.last_classification,
                    classification=classification, spread=spread,
                ))
            state.last_classification = classification
            state.last_spread = spread
        return alerts
