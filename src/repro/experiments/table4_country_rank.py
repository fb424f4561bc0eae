"""Table 4 — most expensive and cheapest countries.

Paper top rows: expensive = Spain, USA, New Zealand, Portugal, Ireland,
Japan, Czech Republic, Korea, Hong Kong, Canada; cheapest = USA, Spain,
Canada, Brazil, Japan, Czech Republic, New Zealand, Australia,
Singapore, Thailand.  (The two lists overlap: a country can be the most
expensive for some products and the cheapest for others.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.pricediff import country_extremes
from repro.analysis.reports import format_table
from repro.experiments import registry


@dataclass
class Table4Result:
    expensive: List[Tuple[str, int]]
    cheapest: List[Tuple[str, int]]

    def render(self) -> str:
        rows = []
        for i in range(max(len(self.expensive), len(self.cheapest))):
            exp = self.expensive[i] if i < len(self.expensive) else ("", "")
            chp = self.cheapest[i] if i < len(self.cheapest) else ("", "")
            rows.append((i + 1, exp[0], exp[1], chp[0], chp[1]))
        return format_table(
            rows,
            headers=("Rank", "Expensive", "# Products", "Cheapest", "# Products"),
            title="Table 4: most expensive / cheapest countries",
        )

    def overlap(self) -> set:
        """Countries appearing in both lists (the paper notes they can)."""
        return {c for c, _ in self.expensive} & {c for c, _ in self.cheapest}


def run(scale: str = "default") -> Table4Result:
    dataset = registry.live_dataset(scale)
    expensive, cheapest = country_extremes(dataset.results)
    return Table4Result(
        expensive=expensive.most_common(10),
        cheapest=cheapest.most_common(10),
    )
