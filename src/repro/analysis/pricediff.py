"""Price-difference statistics over collections of price checks.

Every function takes plain sequences of
:class:`~repro.core.pricecheck.PriceCheckResult` (what the live
deployment and the crawler both produce), so the same analysis code
serves the live dataset (Sect. 6) and the systematic study (Sect. 7).
Whether prices differ is :mod:`repro.core.detector`'s rule — the same
one the add-on's verdict applies — so Figs. 9-11, 13 and Tables 3-5
move with it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.detector import differs, relative_spread
from repro.core.pricecheck import PriceCheckResult


@dataclass(frozen=True)
class BoxStats:
    """Standard box-plot statistics for one distribution."""

    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def _quantile(ordered: Sequence[float], q: float) -> float:
    if not ordered:
        raise ValueError("empty sample")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def box_stats(values: Iterable[float]) -> BoxStats:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("empty sample")
    return BoxStats(
        n=len(ordered),
        minimum=ordered[0],
        q1=_quantile(ordered, 0.25),
        median=_quantile(ordered, 0.5),
        q3=_quantile(ordered, 0.75),
        maximum=ordered[-1],
    )


@dataclass(frozen=True)
class DomainDiffStats:
    """One domain's bar + box of Figs. 9 and 11."""

    domain: str
    n_requests: int
    n_with_difference: int
    spread_stats: Optional[BoxStats]  # over normalized spreads of diff checks


def domain_diff_stats(
    results: Sequence[PriceCheckResult],
    min_diff_requests: int = 1,
) -> List[DomainDiffStats]:
    """Per-domain request counts and spread distributions.

    Only domains with at least ``min_diff_requests`` price checks showing
    a difference are returned (Fig. 9 uses 10), sorted by the number of
    such checks, descending.
    """
    requests: Counter = Counter()
    spreads: Dict[str, List[float]] = defaultdict(list)
    for result in results:
        requests[result.domain] += 1
        spread = result.normalized_spread()
        if differs(spread):
            spreads[result.domain].append(spread)
    out = []
    for domain, diff_list in spreads.items():
        if len(diff_list) < min_diff_requests:
            continue
        out.append(
            DomainDiffStats(
                domain=domain,
                n_requests=requests[domain],
                n_with_difference=len(diff_list),
                spread_stats=box_stats(diff_list),
            )
        )
    out.sort(key=lambda s: s.n_with_difference, reverse=True)
    return out


def domains_with_difference(results: Sequence[PriceCheckResult]) -> List[str]:
    """Domains involved in ≥1 price check with a difference (the '76')."""
    return sorted({r.domain for r in results if r.has_price_difference()})


def ratio_vs_min_price(
    results: Sequence[PriceCheckResult],
) -> List[Tuple[float, float]]:
    """(min price €, max/min ratio) per product — the Fig. 10 scatter.

    Observations for the same product URL are pooled across checks.
    """
    by_url: Dict[str, List[float]] = defaultdict(list)
    for result in results:
        by_url[result.url].extend(result.eur_prices())
    points = []
    for prices in by_url.values():
        if len(prices) < 2:
            continue
        low, high = min(prices), max(prices)
        if low <= 0:
            continue
        points.append((low, high / low))
    points.sort()
    return points


def country_extremes(
    results: Sequence[PriceCheckResult],
) -> Tuple[Counter, Counter]:
    """(most-expensive, cheapest) country counters — Table 4.

    For every check that shows a difference, the countries observing the
    maximum and minimum price each get one point.
    """
    expensive: Counter = Counter()
    cheapest: Counter = Counter()
    for result in results:
        if not result.has_price_difference():
            continue
        rows = [r for r in result.valid_rows() if r.amount_eur is not None]
        top = max(rows, key=lambda r: r.amount_eur)
        bottom = min(rows, key=lambda r: r.amount_eur)
        expensive[top.country] += 1
        cheapest[bottom.country] += 1
    return expensive, cheapest


@dataclass(frozen=True)
class ExtremeDifference:
    """One row of Table 3."""

    domain: str
    url: str
    relative_times: float  # max / min
    absolute_eur: float  # max − min


def extreme_differences(
    results: Sequence[PriceCheckResult], top: int = 10
) -> List[ExtremeDifference]:
    """The largest per-product relative differences (Table 3)."""
    best: Dict[str, ExtremeDifference] = {}
    for result in results:
        prices = result.eur_prices()
        if len(prices) < 2 or min(prices) <= 0:
            continue
        low, high = min(prices), max(prices)
        candidate = ExtremeDifference(
            domain=result.domain,
            url=result.url,
            relative_times=high / low,
            absolute_eur=high - low,
        )
        prev = best.get(result.url)
        if prev is None or candidate.relative_times > prev.relative_times:
            best[result.url] = candidate
    ranked = sorted(best.values(), key=lambda e: e.relative_times, reverse=True)
    return ranked[:top]


def within_country_percentages(
    results: Sequence[PriceCheckResult],
    countries: Sequence[str],
) -> Dict[str, Dict[str, float]]:
    """domain → country → % of requests with an in-country difference.

    The Table 5 statistic: a request counts when the measurement points
    *in the given country* differ.
    """
    totals: Dict[Tuple[str, str], int] = Counter()
    diffs: Dict[Tuple[str, str], int] = Counter()
    for result in results:
        for country in countries:
            rows = result.rows_in_country(country)
            if len(rows) < 2:
                continue
            totals[(result.domain, country)] += 1
            prices = [r.amount_eur for r in rows if r.amount_eur is not None]
            if differs(relative_spread(prices)):
                diffs[(result.domain, country)] += 1
    out: Dict[str, Dict[str, float]] = defaultdict(dict)
    for (domain, country), total in totals.items():
        out[domain][country] = 100.0 * diffs[(domain, country)] / total
    return dict(out)


def peer_bias_distributions(
    results: Sequence[PriceCheckResult],
    country: str,
) -> Dict[str, List[float]]:
    """Per-PPC relative price difference vs the cheapest peer (Fig. 13).

    For every check, each PPC's price in the given country is expressed
    relative to the cheapest same-country measurement of that check; a
    peer that consistently lands high across products is biased.
    """
    per_peer: Dict[str, List[float]] = defaultdict(list)
    for result in results:
        rows = [
            r
            for r in result.rows_in_country(country)
            if r.amount_eur is not None
        ]
        if len(rows) < 2:
            continue
        cheapest = min(r.amount_eur for r in rows)
        if cheapest <= 0:
            continue
        for row in rows:
            if row.kind == "PPC":
                per_peer[row.proxy_id].append(
                    (row.amount_eur - cheapest) / cheapest
                )
    return dict(per_peer)
