"""Temporal price analysis (Figs. 14–15 and Sect. 7.5).

The temporal study checks each product twice a day for 20 days from a
fleet of clean-profile clients; this module turns those observations
into the paper's figures: per-day box statistics, the regression line
annotated on each plot (fit on the highest price observed each day),
the overall revenue delta between the first and last day, and the
average daily fluctuation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.pricediff import BoxStats, box_stats
from repro.core.detector import relative_spread
from repro.core.pricecheck import PriceCheckResult
from repro.net.events import SECONDS_PER_DAY


def daily_series(
    results: Sequence[PriceCheckResult],
) -> Dict[str, Dict[int, List[float]]]:
    """url → day index → all EUR prices observed that day."""
    series: Dict[str, Dict[int, List[float]]] = defaultdict(lambda: defaultdict(list))
    for result in results:
        day = int(result.time // SECONDS_PER_DAY)
        series[result.url][day].extend(result.eur_prices())
    return {url: dict(days) for url, days in series.items()}


@dataclass
class TemporalTrend:
    """One product's panel in Fig. 14/15."""

    url: str
    days: List[int]
    daily_boxes: List[BoxStats]
    slope: float  # €/day, fit on the daily maximum (paper's annotation)
    intercept: float
    direction: str  # "increasing" | "decreasing" | "flat"

    def fitted(self, day: int) -> float:
        return self.intercept + self.slope * day

    @property
    def first_day(self) -> int:
        return self.days[0]

    @property
    def last_day(self) -> int:
        return self.days[-1]


def _fit_line(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) < 2:
        return 0.0, float(y[0]) if len(y) else 0.0
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


#: a regression slope (€ per day) at most this steep reads as flat
FLAT_SLOPE = 1e-3


def trend_for_product(url: str, day_prices: Dict[int, List[float]]) -> TemporalTrend:
    """Daily boxes + the regression line on daily maxima."""
    days = sorted(day_prices)
    boxes = [box_stats(day_prices[d]) for d in days]
    slope, intercept = _fit_line(days, [b.maximum for b in boxes])
    if abs(slope) <= FLAT_SLOPE:
        direction = "flat"
    else:
        direction = "increasing" if slope > 0 else "decreasing"
    return TemporalTrend(
        url=url, days=days, daily_boxes=boxes,
        slope=slope, intercept=intercept, direction=direction,
    )


def revenue_delta(trends: Sequence[TemporalTrend]) -> float:
    """Overall € change if every product sold once (Sect. 7.5).

    "Based on the regression line of each product we estimate a measure
    of the overall price difference between the first and the last day
    for all products" — jcpenney ≈ +€452, chegg ≈ +€225 in the paper.
    """
    total = 0.0
    for trend in trends:
        total += trend.fitted(trend.last_day) - trend.fitted(trend.first_day)
    return total


def daily_fluctuation(day_prices: Dict[int, List[float]]) -> float:
    """Mean relative spread per day — chegg ≈ 8.3 %, jcpenney ≈ 3.7 %."""
    spreads = [relative_spread(prices) for prices in day_prices.values()]
    fluctuations = [s for s in spreads if s is not None]
    return float(np.mean(fluctuations)) if fluctuations else 0.0


def mean_daily_fluctuation(
    series: Dict[str, Dict[int, List[float]]]
) -> float:
    """Average daily fluctuation across all products of a retailer."""
    values = [daily_fluctuation(day_prices) for day_prices in series.values()]
    return float(np.mean(values)) if values else 0.0
