"""Comparing a study's results with a prior study (Sect. 7.2).

The paper revisits the domains reported by Mikians et al. [24] and
classifies each as: no longer valid, no longer discriminating,
redirecting by location, or still serving different prices — and for
the last group compares the median price variation then vs now
(e.g. luisaviaroma.com ≈1.15 in both).  This module provides the same
bookkeeping for any pair of (prior report, current results).  A domain
still discriminates when one of its checks shows a difference by
:mod:`repro.core.detector`'s rule, and its current ratio is one plus the
median spread :func:`~repro.analysis.pricediff.domain_diff_stats`
reports for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.analysis.pricediff import domain_diff_stats
from repro.core.pricecheck import PriceCheckResult


class DomainStatus(enum.Enum):
    """What became of a previously reported domain."""

    NO_LONGER_VALID = "no-longer-valid"  # domain gone
    STOPPED_DISCRIMINATING = "stopped"  # checked, no differences anymore
    STILL_DISCRIMINATING = "still-serving-different-prices"
    NOT_CHECKED = "not-checked"  # no current data for it


@dataclass(frozen=True)
class PriorReport:
    """One domain's entry in the earlier study."""

    domain: str
    median_ratio: float  # median max/min price ratio reported


@dataclass
class DomainComparison:
    domain: str
    status: DomainStatus
    prior_ratio: Optional[float] = None
    current_ratio: Optional[float] = None

    @property
    def relative_change(self) -> Optional[float]:
        """(current − prior) / (prior − 1): change of the *variation*.

        The paper reports e.g. overstock.com's variation shrinking 30%
        (1.48 → 1.18) — the change is measured on the excess over 1.
        """
        if (
            self.prior_ratio is None
            or self.current_ratio is None
            or self.prior_ratio <= 1.0
        ):
            return None
        return (self.current_ratio - self.prior_ratio) / (self.prior_ratio - 1.0)


@dataclass
class StudyComparison:
    """Aggregate of the Sect. 7.2 comparison."""

    comparisons: List[DomainComparison]

    def fraction(self, status: DomainStatus) -> float:
        considered = [c for c in self.comparisons
                      if c.status is not DomainStatus.NOT_CHECKED]
        if not considered:
            return 0.0
        return sum(1 for c in considered if c.status is status) / len(considered)

    def still_discriminating(self) -> List[DomainComparison]:
        return [c for c in self.comparisons
                if c.status is DomainStatus.STILL_DISCRIMINATING]


def compare_with_prior_study(
    results: Sequence[PriceCheckResult],
    prior: Sequence[PriorReport],
    live_domains: Iterable[str],
) -> StudyComparison:
    """Classify every prior-study domain against current observations.

    ``live_domains`` is the set of domains that still exist (resolve);
    prior domains outside it are "no longer valid".  Domains with
    current checks are classified by whether any check still shows a
    difference, and the median max/min ratio is compared when one does.
    """
    live = set(live_domains)
    checked = {result.domain for result in results}
    medians = {s.domain: s.spread_stats.median for s in domain_diff_stats(results)}
    comparisons: List[DomainComparison] = []
    for report in prior:
        comparison = DomainComparison(
            domain=report.domain, status=DomainStatus.NOT_CHECKED,
            prior_ratio=report.median_ratio,
        )
        if report.domain not in live:
            comparison.status = DomainStatus.NO_LONGER_VALID
        elif report.domain in medians:
            comparison.status = DomainStatus.STILL_DISCRIMINATING
            comparison.current_ratio = 1.0 + medians[report.domain]
        elif report.domain in checked:
            comparison.status = DomainStatus.STOPPED_DISCRIMINATING
        comparisons.append(comparison)
    return StudyComparison(comparisons=comparisons)


#: the [24] values the paper quotes in Sect. 7.2 for domains still
#: serving different prices (median variation then).
MIKIANS_2013_REPORTS: Sequence[PriorReport] = (
    PriorReport("luisaviaroma.com", 1.15),
    PriorReport("tuscanyleather.it", 1.12),
    PriorReport("abercrombie.com", 1.53),
    PriorReport("overstock.com", 1.48),
    PriorReport("digitalrev.com", 1.16),
)
