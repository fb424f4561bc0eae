"""Table 3 — extreme relative and absolute price differences.

Paper extremes: steampowered.com ×2.55 (€13.12), abercrombie.com ×2.38,
luisaviaroma.com ×2.32 / €1201 absolute, …, plus the >€10k digital
camera case (Phase One IQ280 on digitalrev.com) discussed in the text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.pricediff import ExtremeDifference, extreme_differences
from repro.analysis.reports import format_table
from repro.experiments import registry


@dataclass
class Table3Result:
    rows: List[ExtremeDifference]
    iq280_absolute_eur: Optional[float]

    def render(self) -> str:
        data = [
            (r.domain, round(r.relative_times, 2), round(r.absolute_eur, 2))
            for r in self.rows
        ]
        out = format_table(
            data,
            headers=("Domain", "Relative (Times)", "Absolute (EUR)"),
            title="Table 3: extreme price differences",
        )
        if self.iq280_absolute_eur is not None:
            out += (
                f"\nPhase One IQ280 (digitalrev.com) absolute spread: "
                f"EUR {self.iq280_absolute_eur:,.0f}"
            )
        return out


def run(scale: str = "default") -> Table3Result:
    dataset = registry.live_dataset(scale)
    rows = extreme_differences(dataset.results)
    iq280 = None
    for result in dataset.results:
        if "digitalrev-iq280" in result.url:
            prices = result.eur_prices()
            if len(prices) >= 2:
                spread = max(prices) - min(prices)
                iq280 = spread if iq280 is None else max(iq280, spread)
    return Table3Result(rows=rows, iq280_absolute_eur=iq280)
