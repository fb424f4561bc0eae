"""Geoblocking detection over the IPC fleet.

The $heriff's geographic vantage points answer a simpler question than
price: *can this page be seen here at all?*  The scanner fetches one
URL from every IPC and groups the outcomes by country; any country
whose vantage points receive a refusal (HTTP 403/451) while others get
the page is geoblocked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

BLOCK_STATUSES = frozenset({403, 451})


@dataclass
class GeoblockReport:
    """Outcome of scanning one URL across the fleet."""

    url: str
    status_by_country: Dict[str, List[int]]

    def blocked_countries(self) -> List[str]:
        out = []
        for country, statuses in self.status_by_country.items():
            if statuses and all(s in BLOCK_STATUSES for s in statuses):
                out.append(country)
        return sorted(out)

    def served_countries(self) -> List[str]:
        return sorted(
            c for c, statuses in self.status_by_country.items()
            if any(s == 200 for s in statuses)
        )

    @property
    def is_geoblocked(self) -> bool:
        """Blocked somewhere while served elsewhere."""
        return bool(self.blocked_countries()) and bool(self.served_countries())

    def render(self) -> str:
        lines = [f"Geoblock scan — {self.url}"]
        for country in sorted(self.status_by_country):
            statuses = self.status_by_country[country]
            state = (
                "BLOCKED" if country in self.blocked_countries() else "served"
            )
            lines.append(f"  {country}: {state} (statuses {sorted(set(statuses))})")
        verdict = "geoblocked" if self.is_geoblocked else "uniformly available"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines)


class GeoblockScanner:
    """Runs geoblock scans using a deployment's IPC fleet."""

    def __init__(self, sheriff) -> None:
        self._sheriff = sheriff

    def scan(self, url: str) -> GeoblockReport:
        status_by_country: Dict[str, List[int]] = {}
        for ipc in self._sheriff.ipcs:
            fetch = ipc.fetch(url)
            status_by_country.setdefault(
                ipc.location.country, []
            ).append(fetch.status)
        return GeoblockReport(url=url, status_by_country=status_by_country)
