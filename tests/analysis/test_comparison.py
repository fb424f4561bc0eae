"""Tests for the prior-study comparison (Sect. 7.2)."""

import pytest

from repro.analysis.comparison import (
    DomainStatus,
    MIKIANS_2013_REPORTS,
    PriorReport,
    compare_with_prior_study,
)
from repro.core.pricecheck import PriceCheckResult, ResultRow


def row(country, eur, proxy="p"):
    return ResultRow(
        kind="IPC", proxy_id=proxy, country=country, region=country, city="c",
        original_text="x1", detected_amount=eur, detected_currency="EUR",
        converted_value=eur, amount_eur=eur,
    )


def check(domain, prices, url_suffix="p1"):
    result = PriceCheckResult(
        job_id=f"{domain}-{url_suffix}", url=f"http://{domain}/{url_suffix}",
        domain=domain, requested_currency="EUR", time=0.0,
    )
    result.rows = [row("ES", p, proxy=f"i{i}") for i, p in enumerate(prices)]
    return result


@pytest.fixture
def current_results():
    return [
        check("still.com", [100.0, 115.0]),     # still discriminating ×1.15
        check("stopped.com", [50.0, 50.0]),      # uniform now
    ]


PRIOR = [
    PriorReport("still.com", 1.15),
    PriorReport("stopped.com", 1.30),
    PriorReport("gone.com", 1.20),
    PriorReport("unchecked.com", 1.40),
]

LIVE = ["still.com", "stopped.com", "unchecked.com"]


class TestClassification:
    def test_statuses(self, current_results):
        cmp = compare_with_prior_study(current_results, PRIOR, LIVE)
        by_domain = {c.domain: c.status for c in cmp.comparisons}
        assert by_domain["still.com"] is DomainStatus.STILL_DISCRIMINATING
        assert by_domain["stopped.com"] is DomainStatus.STOPPED_DISCRIMINATING
        assert by_domain["gone.com"] is DomainStatus.NO_LONGER_VALID
        assert by_domain["unchecked.com"] is DomainStatus.NOT_CHECKED

    def test_current_ratio_computed(self, current_results):
        cmp = compare_with_prior_study(current_results, PRIOR, LIVE)
        still = next(c for c in cmp.comparisons
                     if c.status is DomainStatus.STILL_DISCRIMINATING)
        assert still.current_ratio == pytest.approx(1.15)

    def test_relative_change_on_excess(self, current_results):
        """overstock-style: 1.48 → 1.18 reads as a 30/48 ≈ 62%… the
        paper's 30% is on the excess: (1.18−1.48)/(1.48−1)."""
        results = [check("shrunk.com", [100.0, 118.0])]
        cmp = compare_with_prior_study(
            results, [PriorReport("shrunk.com", 1.48)], ["shrunk.com"]
        )
        (c,) = cmp.comparisons
        assert c.relative_change == pytest.approx((1.18 - 1.48) / 0.48,
                                                  abs=0.01)


def test_paper_prior_reports_available():
    domains = {r.domain for r in MIKIANS_2013_REPORTS}
    assert "luisaviaroma.com" in domains
    assert all(r.median_ratio > 1.0 for r in MIKIANS_2013_REPORTS)
