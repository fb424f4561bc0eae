"""Browsing history modelled on the browser history service.

The $heriff's PDI-PD detection needs *domain-level* browsing profiles:
"accessing the entire browsing history of the user at the granularity of
a full URL is not recommended since the full URLs are prone to leak
personally identifiable information" (Sect. 2.2, requirement 3).  The
history stores full URLs (as the real service does) but exposes the
domain-level view the add-on donates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

from repro.web.internet import parse_url


@dataclass(frozen=True)
class HistoryEntry:
    """One visit.  Constructed, compared and printed as ``(time, url)``."""

    time: float
    url: str
    #: the URL's domain, parsed once here: the per-domain counts below
    #: read it for every entry on every call
    domain: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", parse_url(self.url)[0])


class BrowserHistory:
    """Ordered visit log with domain-level aggregation and snapshots.

    Each entry parses its URL once, when it is added; the per-domain
    views scan the log comparing those stored domains.
    """

    def __init__(self) -> None:
        self._entries: List[HistoryEntry] = []

    def add(self, time: float, url: str) -> None:
        self._entries.append(HistoryEntry(time=time, url=url))

    def domain_counts(self, since: Optional[float] = None) -> Counter:
        """Visits per domain — the donated browsing-profile raw data."""
        counts: Counter = Counter()
        for entry in self._entries:
            if since is not None and entry.time < since:
                continue
            counts[entry.domain] += 1
        return counts

    def product_visits_to(self, domain: str) -> int:
        """Visits to product pages of one domain (pollution accounting)."""
        return sum(
            1
            for e in self._entries
            if e.domain == domain and "/product/" in e.url
        )

    # -- snapshot / restore ----------------------------------------------
    def snapshot(self) -> List[HistoryEntry]:
        return list(self._entries)

    def restore(self, state: List[HistoryEntry]) -> None:
        self._entries = list(state)
