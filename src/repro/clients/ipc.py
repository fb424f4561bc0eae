"""Infrastructure Proxy Clients (IPCs).

"The dedicated servers of the system measure the price of products using
cleanly installed web-browsers and operating systems that do not
maintain any browsing history or cookies" (Sect. 1) — so every fetch
runs in a *fresh* browser.  The default deployment mirrors the paper's
30 nodes, including three in Spain (Sect. 7.3) and the countries named
in Fig. 2 / Table 4.  Some PlanetLab-style nodes are chronically
overloaded (Sect. 5); the ``slowdown`` factor models that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.browser.browser import Browser
from repro.browser.fingerprint import user_agent
from repro.net.events import Clock
from repro.net.faults import (
    ROLE_IPC,
    BackoffPolicy,
    FaultPlan,
    ProxyFetchError,
    ProxyTimeout,
)
from repro.net.geo import GeoDatabase, Location
from repro.web.internet import Internet
from repro.web.trackers import TrackerEcosystem

#: the default 30-node deployment: (country, city, slowdown).
DEFAULT_IPC_SITES: Tuple[Tuple[str, str, float], ...] = (
    ("ES", "Madrid", 1.0),
    ("ES", "Barcelona", 1.0),
    ("ES", "Valencia", 1.0),
    ("US", "Tennessee", 1.0),
    ("US", "Massachusetts", 1.4),  # overloaded PlanetLab node
    ("US", "Washington", 1.0),
    ("CA", "British Columbia", 1.0),
    ("CA", "Ontario", 1.0),
    ("GB", "London", 1.0),
    ("DE", "Berlin", 1.0),
    ("FR", "Paris", 1.0),
    ("IT", "Rome", 1.0),
    ("NL", "Amsterdam", 1.0),
    ("SE", "Scandinavia", 1.0),
    ("CH", "Zurich", 1.0),
    ("JP", "Tokyo", 1.0),
    ("JP", "Hiroshima", 1.8),  # overloaded PlanetLab node
    ("KR", "Seoul", 1.0),
    ("NZ", "Dunedin", 1.0),
    ("CZ", "Praha", 1.0),
    ("IL", "Beer-Sheva", 1.0),
    ("PT", "Lisbon", 1.0),
    ("IE", "Dublin", 1.0),
    ("BR", "Sao Paulo", 1.6),  # overloaded PlanetLab node
    ("AU", "Sydney", 1.0),
    ("SG", "Singapore", 1.0),
    ("HK", "Hong Kong", 1.0),
    ("TH", "Bangkok", 1.0),
    ("PL", "Warsaw", 1.0),
    ("GR", "Athens", 1.0),
)

#: retries after a failed fetch attempt, and the waits between them
MAX_RETRIES = 2
BACKOFF = BackoffPolicy(base=0.25)


@dataclass
class IpcFetch:
    """Result of one IPC page fetch."""

    ipc_id: str
    html: str
    status: int
    location: Location
    ua_os: str
    ua_browser: str


class InfrastructureProxyClient:
    """A geo-fixed measurement node with always-clean browser state."""

    def __init__(
        self,
        ipc_id: str,
        internet: Internet,
        ecosystem: TrackerEcosystem,
        clock: Clock,
        location: Location,
        slowdown: float = 1.0,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.ipc_id = ipc_id
        self._internet = internet
        self._ecosystem = ecosystem
        self._clock = clock
        self.location = location
        self.slowdown = slowdown
        self._agent = user_agent("Linux", "Firefox")
        self.fetch_count = 0
        #: chaos schedule consulted per fetch attempt; None = clean node
        self.faults = faults
        #: simulated seconds spent backing off between attempts: the
        #: fan-out runs at one world instant (every vantage point fetches
        #: "at the same time"), so a wait is accounted here, not enacted
        #: on the world clock
        self.backoff_seconds = 0.0

    def fetch(self, url: str) -> IpcFetch:
        """Fetch in a brand-new browser: no history, no cookies."""
        browser = Browser(
            internet=self._internet,
            ecosystem=self._ecosystem,
            clock=self._clock,
            location=self.location,
            agent=self._agent,
        )
        response = browser.visit(url)
        self.fetch_count += 1
        return IpcFetch(
            ipc_id=self.ipc_id,
            html=response.html,
            status=response.status,
            location=self.location,
            ua_os=self._agent.os,
            ua_browser=self._agent.browser,
        )

    def fetch_with_retry(
        self,
        url: str,
        timeout_slowdown: Optional[float] = None,
    ) -> Tuple[IpcFetch, int]:
        """Fetch with a bounded, jittered retry budget.

        Returns ``(fetch, retries_used)``.  Raises
        :class:`ProxyTimeout` / :class:`ProxyFetchError` once the budget
        is exhausted (the production system kills proxy requests after
        2 minutes, Sect. 5; ``timeout_slowdown`` is that deadline in
        slowdown-factor units).
        """
        if timeout_slowdown is not None and self.slowdown > timeout_slowdown:
            # chronically overloaded node: the deadline always fires
            raise ProxyTimeout(
                f"{self.ipc_id}: slowdown {self.slowdown:g} exceeds the "
                f"proxy timeout budget"
            )
        last_error: Optional[ProxyFetchError] = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt > 0:
                self.backoff_seconds += BACKOFF.delay(
                    attempt - 1,
                    self.faults.rng if self.faults is not None else None,
                )
            decision = (
                self.faults.decide("measurement", self.ipc_id, role=ROLE_IPC)
                if self.faults is not None
                else None
            )
            if decision:
                if decision.kind == "drop":
                    last_error = ProxyFetchError(
                        f"{self.ipc_id}: fetch dropped"
                    )
                    continue
                if decision.kind == "timeout":
                    last_error = ProxyTimeout(f"{self.ipc_id}: fetch timed out")
                    continue
                if decision.kind == "delay" and timeout_slowdown is not None:
                    if self.slowdown * decision.delay_factor > timeout_slowdown:
                        last_error = ProxyTimeout(
                            f"{self.ipc_id}: delay spike exceeded the "
                            f"proxy timeout budget"
                        )
                        continue
            fetch = self.fetch(url)
            if decision and decision.kind == "corrupt":
                fetch.html = self.faults.corrupt_text(fetch.html)
            return fetch, attempt
        assert last_error is not None
        raise last_error


def build_default_ipcs(
    internet: Internet,
    ecosystem: TrackerEcosystem,
    clock: Clock,
    geodb: GeoDatabase,
    sites: Sequence[Tuple[str, str, float]] = DEFAULT_IPC_SITES,
    faults: Optional[FaultPlan] = None,
) -> List[InfrastructureProxyClient]:
    """Stand up the default geo-dispersed IPC fleet."""
    ipcs = []
    for i, (country, city, slowdown) in enumerate(sites):
        ipcs.append(
            InfrastructureProxyClient(
                ipc_id=f"ipc-{i:02d}-{country.lower()}",
                internet=internet,
                ecosystem=ecosystem,
                clock=clock,
                location=geodb.make_location(country, city),
                slowdown=slowdown,
                faults=faults,
            )
        )
    return ipcs
