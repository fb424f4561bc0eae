"""Fig. 13 — per-peer price-difference distributions (jcpenney.com).

Left panel (France): small (<2%) relative differences, each peer seeing
low and high prices roughly uniformly — no bias, consistent with plain
A/B testing.  Right panel (UK): ~7% differences with some peers
consistently low and others consistently high (the sticky buckets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.pricediff import peer_bias_distributions
from repro.analysis.reports import format_table
from repro.core.detector import differs
from repro.experiments import registry


@dataclass
class Fig13Result:
    france: Dict[str, List[float]]
    uk: Dict[str, List[float]]

    @staticmethod
    def biased_peers(distributions: Dict[str, List[float]],
                     min_obs: int = 3) -> Dict[str, str]:
        """Peers whose observations are consistently high or low (no
        observation differs from the cheapest peer's)."""
        verdicts = {}
        for peer, values in distributions.items():
            if len(values) < min_obs:
                continue
            if all(v > 0.03 for v in values):
                verdicts[peer] = "high"
            elif not any(map(differs, values)):
                verdicts[peer] = "low"
        return verdicts

    @staticmethod
    def max_diff(distributions: Dict[str, List[float]]) -> float:
        values = [v for vs in distributions.values() for v in vs]
        return max(values, default=0.0)

    def render(self) -> str:
        rows = []
        for country, dists in (("FR", self.france), ("GB", self.uk)):
            for peer, values in sorted(dists.items()):
                arr = np.asarray(values) if values else np.asarray([0.0])
                rows.append((
                    country, peer[:14], len(values),
                    f"{100 * float(np.median(arr)):.2f}%",
                    f"{100 * float(arr.max()):.2f}%",
                ))
        return format_table(
            rows,
            headers=("Country", "Peer", "Obs", "Median diff", "Max diff"),
            title="Fig. 13: per-PPC relative price difference (jcpenney.com)",
        )


def run(scale: str = "default") -> Fig13Result:
    case = registry.case_study_data(scale)
    jcp = case["jcpenney.com"]
    return Fig13Result(
        france=peer_bias_distributions(jcp.get("FR", []), "FR"),
        uk=peer_bias_distributions(jcp.get("GB", []), "GB"),
    )
