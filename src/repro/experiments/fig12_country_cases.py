"""Fig. 12 — per-country in-country differences for the three retailers.

One scatter per (retailer, country): x = minimum price observed for a
product, y = maximum relative in-country difference for that product.
Paper shape: chegg.com spreads 3–7% on €10–€100 textbooks; jcpenney.com
stays below 2% except exactly 7% in the UK; amazon.com's values sit on
the countries' VAT scales (ES 21/10%, FR 20/5.5%, DE 19/7%, GB 20/5%).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.reports import format_table
from repro.core.detector import relative_spread
from repro.experiments import registry


@dataclass
class Fig12Result:
    #: (domain, country) → list of (min price €, max relative diff)
    scatter: Dict[Tuple[str, str], List[Tuple[float, float]]]

    def diffs(self, domain: str, country: str) -> List[float]:
        return [d for _, d in self.scatter.get((domain, country), []) if d > 0]

    def max_diff(self, domain: str, country: str) -> float:
        return max(self.diffs(domain, country), default=0.0)

    def render(self) -> str:
        rows = []
        for (domain, country), points in sorted(self.scatter.items()):
            diffs = [d for _, d in points if d > 0]
            rows.append((
                domain, country, len(points), len(diffs),
                f"{100 * max(diffs, default=0):.1f}%",
            ))
        return format_table(
            rows,
            headers=("Domain", "Country", "Products", "With diff", "Max diff"),
            title="Fig. 12: in-country differences per retailer per country",
        )


def run(scale: str = "default") -> Fig12Result:
    case = registry.case_study_data(scale)
    scatter: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for domain, by_country in case.items():
        for country, results in by_country.items():
            # Differences are taken *within a single check* — all points
            # fetch simultaneously, factoring out temporal variation —
            # then the per-product maximum over all repetitions is kept.
            min_price: Dict[str, float] = {}
            max_diff: Dict[str, float] = defaultdict(float)
            for result in results:
                prices = [
                    r.amount_eur for r in result.rows_in_country(country)
                    if r.amount_eur is not None
                ]
                spread = relative_spread(prices)
                if spread is None:
                    continue
                low, url = min(prices), result.url
                min_price[url] = min(min_price.get(url, low), low)
                max_diff[url] = max(max_diff[url], spread)
            points = [
                (min_price[url], max_diff[url]) for url in min_price
            ]
            scatter[(domain, country)] = sorted(points)
    return Fig12Result(scatter=scatter)
