"""Fig. 9 — live-dataset domains with price differences.

Top panel: requests per domain where a price difference occurred;
bottom panel: the distribution (box stats) of the normalized price
difference per domain.  Paper shape: several domains with medians in
the 20–30% band (digitalrev, luisaviaroma, overstock, steampowered,
suitsupply), a couple near 40% (abercrombie, jcpenney); 76 of 1994
checked domains show at least one difference (≈3.8%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.pricediff import (
    DomainDiffStats,
    domain_diff_stats,
    domains_with_difference,
)
from repro.analysis.reports import format_table
from repro.experiments import registry


@dataclass
class Fig9Result:
    stats: List[DomainDiffStats]
    n_domains_checked: int
    n_domains_with_difference: int

    @property
    def diff_fraction(self) -> float:
        if self.n_domains_checked == 0:
            return 0.0
        return self.n_domains_with_difference / self.n_domains_checked

    def render(self) -> str:
        rows = [
            (
                s.domain,
                s.n_requests,
                s.n_with_difference,
                f"{100 * s.spread_stats.median:.1f}%",
                f"{100 * s.spread_stats.q1:.1f}%",
                f"{100 * s.spread_stats.q3:.1f}%",
                f"{100 * s.spread_stats.maximum:.1f}%",
            )
            for s in self.stats
        ]
        table = format_table(
            rows,
            headers=("Domain", "Requests", "With diff", "Median", "Q1",
                     "Q3", "Max"),
            title="Fig. 9: live-dataset domains with price differences",
        )
        return table + (
            f"\n{self.n_domains_with_difference} of "
            f"{self.n_domains_checked} checked domains "
            f"({100 * self.diff_fraction:.1f}%) showed a difference"
        )


def run(scale: str = "default", min_diff_requests: int = 2) -> Fig9Result:
    dataset = registry.live_dataset(scale)
    if scale == "test":
        min_diff_requests = 1
    stats = domain_diff_stats(dataset.results,
                              min_diff_requests=min_diff_requests)
    return Fig9Result(
        stats=stats,
        n_domains_checked=dataset.n_domains_checked,
        n_domains_with_difference=len(domains_with_difference(dataset.results)),
    )
