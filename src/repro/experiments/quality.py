"""Detector quality: each check's verdict scored against what the stores
charged for it.

A :class:`QuoteRecorder` wraps :meth:`repro.web.store.EStore.fetch` for
the length of a run and keeps, for every product page served, the
oracle quote's ``amount_eur`` and its adjustments (each a label and a
multiplier), grouped by check — the fetches of one check share its URL
and its fan-out instant.  It lives on the experiment side: the $heriff
never reads it.

Two tables per run:

* **yes/no** — the add-on's verdict (``has_price_difference``) against
  the detector's own rule over the check's quotes
  (``differs(relative_spread(amounts))``): precision and recall;
* **kind** — which adjustment kinds priced the check's quotes apart
  (their multipliers differ between quotes) against the verdict's
  ``analyze_rows`` classification.  The labels map to kinds as
  ROADMAP item 1(a) maps them: ``country`` and ``regional`` → location,
  ``ab`` → A/B, ``pdi-pd`` → PDI-PD, ``vat`` → VAT-explained and
  ``drift`` → temporal (one check's fetches share an instant, so a
  drift never varies inside a check).

The runs are the live deployment's shape (:mod:`repro.workloads.deployment`)
at the scale's size, at seeds 2017 and 7.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.analysis.reports import format_table
from repro.core.detector import analyze_rows, differs, relative_spread
from repro.experiments.registry import SCALES
from repro.web.store import EStore
from repro.workloads.deployment import LiveDeployment

SEEDS: Tuple[int, ...] = (2017, 7)

#: adjustment label prefix → the kind of price difference it makes
KIND_OF_LABEL: Dict[str, str] = {
    "country": "location",
    "regional": "location",
    "ab": "A/B",
    "pdi-pd": "PDI-PD",
    "vat": "VAT-explained",
    "drift": "temporal",
}
KINDS: Tuple[str, ...] = ("location", "A/B", "PDI-PD", "VAT-explained", "temporal")
VERDICTS: Tuple[str, ...] = ("none", "location", "within-country")

#: one served quote: (amount in EUR, ((label, multiplier), ...))
Quote = Tuple[float, Tuple[Tuple[str, float], ...]]


class QuoteRecorder:
    """Records the quote of every product page served while it is open,
    keyed by ``(url, request time)``."""

    def __init__(self) -> None:
        self.quotes: Dict[Tuple[str, float], List[Quote]] = defaultdict(list)
        self._fetch = None

    def __enter__(self) -> "QuoteRecorder":
        fetch = self._fetch = EStore.fetch
        quotes = self.quotes

        def recorded(store, path, ctx):
            response = fetch(store, path, ctx)
            quote = response.quote
            if quote is not None:
                quotes[(response.url, ctx.time)].append((quote.amount_eur, tuple(
                    (a.label, a.multiplier) for a in quote.adjustments
                )))
            return response

        EStore.fetch = recorded
        return self

    def __exit__(self, *exc) -> None:
        EStore.fetch = self._fetch


def kinds_apart(quotes: List[Quote]) -> Tuple[str, ...]:
    """The kinds whose adjustments price the quotes apart: a kind counts
    when the product of its multipliers differs between two quotes."""
    factors: Dict[str, set] = {kind: set() for kind in KINDS}
    for _, adjustments in quotes:
        product = dict.fromkeys(KINDS, 1.0)
        for label, multiplier in adjustments:
            product[KIND_OF_LABEL[label.split(":", 1)[0]]] *= multiplier
        for kind, factor in product.items():
            factors[kind].add(round(factor, 9))
    return tuple(kind for kind in KINDS if len(factors[kind]) > 1)


def _ratio(hits: int, of: int) -> float:
    return round(hits / of, 4) if of else 1.0


def score_run(scale: str, seed: int) -> Dict[str, object]:
    """Run the live deployment at ``scale`` and ``seed`` under a
    recorder and score every check it made: ``checks``, ``yes_no``
    (``tp``/``fp``/``fn``/``tn``, ``precision``, ``recall``) and
    ``kinds`` (kinds apart, joined by ``+`` or ``none`` → verdict
    classification → checks)."""
    cfg = replace(SCALES[scale].live, seed=seed)
    deployment = LiveDeployment(cfg)
    with QuoteRecorder() as recorder:
        dataset = deployment.run()
    geodb = deployment.world.geodb
    cells = Counter()
    kinds: Dict[str, Counter] = defaultdict(Counter)
    for result in dataset.results:
        quotes = recorder.quotes[(result.url, result.time)]
        truth = differs(relative_spread([amount for amount, _ in quotes]))
        verdict = result.has_price_difference()
        cells[("t" if truth == verdict else "f") + ("p" if verdict else "n")] += 1
        apart = "+".join(kinds_apart(quotes)) or "none"
        kinds[apart][analyze_rows(result.rows, geodb).classification] += 1
    tp, fp, fn, tn = (cells[c] for c in ("tp", "fp", "fn", "tn"))
    return {
        "checks": len(dataset.results),
        "yes_no": {"tp": tp, "fp": fp, "fn": fn, "tn": tn,
                   "precision": _ratio(tp, tp + fp), "recall": _ratio(tp, tp + fn)},
        "kinds": {row: {v: kinds[row][v] for v in VERDICTS} for row in sorted(kinds)},
    }


@dataclass
class QualityResult:
    """Seed → :func:`score_run`'s tables, the shape ``QUALITY.json``
    holds per scale."""

    runs: Dict[str, Dict[str, object]]

    def render(self) -> str:
        yes_no = format_table(
            [
                (seed, run["checks"], *(run["yes_no"][c] for c in ("tp", "fp", "fn", "tn")),
                 f"{run['yes_no']['precision']:.4f}", f"{run['yes_no']['recall']:.4f}")
                for seed, run in self.runs.items()
            ],
            headers=("Seed", "Checks", "TP", "FP", "FN", "TN", "Precision", "Recall"),
            title="Detector quality: yes/no verdict against the stores' quotes",
        )
        kinds = format_table(
            [
                (seed, row, *(cells[v] for v in VERDICTS))
                for seed, run in self.runs.items()
                for row, cells in run["kinds"].items()
            ],
            headers=("Seed", "Kinds apart (quotes)", *VERDICTS),
            title="Detector quality: kind of difference against the verdict",
        )
        return f"{yes_no}\n\n{kinds}"


def run(scale: str = "default") -> QualityResult:
    return QualityResult(runs={str(seed): score_run(scale, seed) for seed in SEEDS})
