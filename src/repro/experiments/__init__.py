"""Experiment harnesses: one module per table/figure of the paper.

Each module exposes a ``run(scale="default")`` entry point returning a
result object with the figure/table's data plus a ``render()`` method
that prints the same rows/series the paper reports.  Shared underlying
datasets (the live deployment, the four-country case study, the
temporal study) are built once per process in
:mod:`repro.experiments.registry`.

:data:`EXPERIMENTS` is the one list of them, in the order
``repro reproduce all`` prints them.
"""

import importlib
from typing import Callable, Dict

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {".registry": ["registry"]})
__all__ += ["EXPERIMENTS"]


def _runner(module: str, function: str = "run") -> Callable[[str], object]:
    """``function`` of ``repro.experiments.<module>``, imported on first
    call: the experiment modules import :mod:`registry`, and a table
    entry should cost nothing until it runs."""

    def run(scale: str):
        return getattr(importlib.import_module(f"{__name__}.{module}"), function)(scale)

    return run


#: name → ``runner(scale)`` returning a result with ``render()``
EXPERIMENTS: Dict[str, Callable[[str], object]] = {
    "table1": _runner("table1_performance"),
    "table2": _runner("table2_countries"),
    "table3": _runner("table3_extremes"),
    "table4": _runner("table4_country_rank"),
    "table5": _runner("table5_percentages"),
    "fig2": _runner("fig2_result_page"),
    "fig5": _runner("fig5_adoption"),
    "fig8a": _runner("fig8_clustering", "run_fig8a"),
    "fig8b": _runner("fig8_clustering", "run_fig8b"),
    "fig8c": _runner("fig8_clustering", "run_fig8c"),
    "fig9": _runner("fig9_live_domains"),
    "fig10": _runner("fig10_ratio"),
    "fig11": _runner("fig11_crawl"),
    "fig12": _runner("fig12_country_cases"),
    "fig13": _runner("fig13_peer_bias"),
    "fig14-15": _runner("fig14_15_temporal"),
    "sec75": _runner("sec75_ab_stats"),
    "sec76": _runner("sec76_alexa400"),
    "ablation-dispatch": _runner("ablations", "run_dispatch_ablation"),
    "ablation-doppelganger": _runner("ablations", "run_doppelganger_ablation"),
    "ablation-secure-kmeans": _runner("ablations", "run_secure_kmeans_ablation"),
    "ablation-diffstorage": _runner("ablations", "run_diffstorage_ablation"),
    "sec72": _runner("sec72_prior_study"),
    "quality": _runner("quality"),
}
