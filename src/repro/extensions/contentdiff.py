"""Generalized content-difference detection (automatic personalisation).

The Tags Path machinery locates *any* user-selected element, not just a
price.  :class:`ContentWatch` records a path to an arbitrary element on
the initiator's page and compares the extracted text across every
vantage point — the filter-bubble / personalisation watchdog the paper
sketches as future work.  Variants are grouped, and the report says
whether the variation correlates with location (each country sees one
variant) or cuts across it (per-user personalisation).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.tagspath import Selector, TagsPath, extract_price_text, select_tags_path


@dataclass
class ContentObservation:
    """One vantage point's view of the selected element."""

    vantage_id: str
    country: str
    text: Optional[str]  # None = element not found / page unavailable


@dataclass
class ContentVariationReport:
    url: str
    observations: List[ContentObservation]

    def variants(self) -> Dict[str, List[ContentObservation]]:
        """Distinct extracted texts → observations showing them."""
        groups: Dict[str, List[ContentObservation]] = defaultdict(list)
        for obs in self.observations:
            if obs.text is not None:
                groups[obs.text].append(obs)
        return dict(groups)

    @property
    def n_variants(self) -> int:
        return len(self.variants())

    @property
    def is_uniform(self) -> bool:
        return self.n_variants <= 1

    def location_consistent(self) -> bool:
        """True when every country sees exactly one variant — the
        geographic-personalisation signature (localized content) as
        opposed to per-user personalisation."""
        by_country: Dict[str, set] = defaultdict(set)
        for obs in self.observations:
            if obs.text is not None:
                by_country[obs.country].add(obs.text)
        return all(len(texts) == 1 for texts in by_country.values())

    def classification(self) -> str:
        if self.is_uniform:
            return "uniform"
        if self.location_consistent():
            return "localized"
        return "personalized"

    def render(self) -> str:
        lines = [f"Content watch — {self.url}",
                 f"variants: {self.n_variants}  "
                 f"classification: {self.classification()}"]
        for text, group in sorted(self.variants().items()):
            countries = sorted({o.country for o in group})
            lines.append(f"  {text[:40]!r}: {len(group)} points "
                         f"({', '.join(countries)})")
        return "\n".join(lines)


class ContentWatch:
    """Watchdog for arbitrary page content across vantage points."""

    def __init__(self, sheriff) -> None:
        self._sheriff = sheriff

    @staticmethod
    def record_path(html: str, select: Selector) -> TagsPath:
        """Record the path to a user-selected element (any element).

        ``select`` is the user's cursor: given the page's elements in
        document order, the one it lands on.
        """
        return select_tags_path(html, select)[0]

    def check(self, url: str, path: TagsPath) -> ContentVariationReport:
        """Extract the selected element from every IPC's fetch."""
        observations: List[ContentObservation] = []
        for ipc in self._sheriff.ipcs:
            fetch = ipc.fetch(url)
            text = (
                extract_price_text(fetch.html, path)
                if fetch.status == 200 else None
            )
            observations.append(ContentObservation(
                vantage_id=ipc.ipc_id,
                country=ipc.location.country,
                text=text,
            ))
        return ContentVariationReport(url=url, observations=observations)
