"""Sect. 7.2 — what became of the domains an earlier study reported.

The paper revisits the domains Mikians et al. [24] found serving
different prices and classifies each as no longer valid, stopped, or
still discriminating; for the last group it compares the median price
variation then and now (luisaviaroma.com ≈1.15 in both, overstock.com
1.48 → 1.18).  Here the live deployment's checks are held against the
[24] values the paper quotes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.comparison import (
    MIKIANS_2013_REPORTS,
    StudyComparison,
    compare_with_prior_study,
)
from repro.analysis.reports import format_table
from repro.experiments import registry


def _ratio(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.2f}"


@dataclass
class Sec72Result:
    comparison: StudyComparison

    def render(self) -> str:
        rows = [
            (
                c.domain,
                c.status.value,
                _ratio(c.prior_ratio),
                _ratio(c.current_ratio),
                "-" if c.relative_change is None
                else f"{100 * c.relative_change:+.1f}%",
            )
            for c in self.comparison.comparisons
        ]
        return format_table(
            rows,
            headers=("Domain", "Status", "Prior ratio", "Current ratio",
                     "Relative change"),
            title="Sect. 7.2: domains of the prior study [24], revisited",
        )


def run(scale: str = "default") -> Sec72Result:
    dataset = registry.live_dataset(scale)
    return Sec72Result(comparison=compare_with_prior_study(
        dataset.results,
        MIKIANS_2013_REPORTS,
        [store.domain for store in dataset.world.internet.stores()],
    ))
