"""The price-difference rule (Sect. 2), decided once.

Every judgement the watchdog publishes — the add-on's verdict, the
Sect. 6 and Sect. 7 tables and figures, the watchlist alerts — asks
the same question of a set of prices, and this module is the one place
that answers it:

* :func:`relative_spread` — ``(max − min) / min``, or ``None`` when
  there is nothing to compare (fewer than two prices, a minimum ≤ 0);
* :func:`differs` — is a spread beyond :data:`TOLERANCE`, the noise
  that rounding and currency conversion leave behind?
* :func:`gap_matches_vat` — does an in-country gap sit on the
  country's VAT scale (the amazon.com signature of Sect. 7.3, a lawful
  difference rather than personalised pricing)?
* :func:`analyze_rows` — the structural verdict over one product's
  rows: none, location-based, or within one country.

Whether a within-country variation is PDI-PD or A/B testing is a
*statistical* question answered by :mod:`repro.analysis.stats` over many
observations; this module handles the per-check structural part.  To
change the rule, change it here: every caller reads these four names.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.core.pricecheck import ResultRow
    from repro.net.geo import GeoDatabase

#: spreads at or below this are noise (rounding, converters).
TOLERANCE = 0.005
#: how close a gap must be to a VAT rate to count as VAT-explained.
VAT_MATCH_EPSILON = 0.01


def relative_spread(prices: Sequence[float]) -> Optional[float]:
    """``(max − min) / min``; ``None`` for fewer than two prices or a
    minimum ≤ 0."""
    if len(prices) < 2:
        return None
    low = min(prices)
    if low <= 0:
        return None
    return (max(prices) - low) / low


def differs(spread: Optional[float]) -> bool:
    """Is this spread a price difference, not noise?"""
    return spread is not None and spread > TOLERANCE


def gap_matches_vat(gap: float, country: str, geodb: GeoDatabase) -> bool:
    """Does a relative price gap sit on one of the country's VAT rates?"""
    try:
        rates = geodb.country(country).vat_rates
    except KeyError:
        return False
    return any(rate > 0 and abs(gap - rate) <= VAT_MATCH_EPSILON for rate in rates)


@dataclass
class PriceVariationReport:
    """Structural verdict for one product's observations."""

    n_points: int
    overall_spread: float  # relative spread across all points, 0.0 if none
    cross_country_spread: float  # relative spread of per-country medians
    within_country_spread: Dict[str, float]  # country → in-country spread
    vat_explained: Dict[str, bool]  # country → gap sits on the VAT scale
    classification: str  # "none" | "location" | "within-country"


def analyze_rows(rows: Iterable[ResultRow], geodb: GeoDatabase) -> PriceVariationReport:
    """Classify the price variation across a set of measurement points.

    ``within-country`` when some country's own points differ, else
    ``location`` when any two points differ (the medians of countries
    with several points, or single-point countries), else ``none``.
    """
    by_country: Dict[str, List[float]] = {}
    for row in rows:
        if row.ok and row.amount_eur is not None:
            by_country.setdefault(row.country, []).append(row.amount_eur)
    prices = [price for values in by_country.values() for price in values]
    overall = relative_spread(prices)
    cross = relative_spread([median(values) for values in by_country.values()])

    within: Dict[str, float] = {}
    for country, values in by_country.items():
        spread = relative_spread(values)
        if differs(spread):
            within[country] = spread

    if within:
        classification = "within-country"
    elif differs(cross) or differs(overall):
        # the medians differ, or single-point countries do; the medians
        # still count when a price ≤ 0 leaves no overall spread
        classification = "location"
    else:
        classification = "none"

    return PriceVariationReport(
        n_points=len(prices),
        overall_spread=overall or 0.0,
        cross_country_spread=cross or 0.0,
        within_country_spread=within,
        vat_explained={c: gap_matches_vat(s, c, geodb) for c, s in within.items()},
        classification=classification,
    )
