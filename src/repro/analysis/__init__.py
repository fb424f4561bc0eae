"""Analysis: the statistics behind Sects. 6 and 7 of the paper.

* :mod:`repro.analysis.pricediff` — per-domain request/spread statistics
  (Figs. 9/11), max-over-min ratios vs price (Fig. 10), country extremes
  (Table 4), extreme differences (Table 3), in-country percentages
  (Table 5), per-peer bias distributions (Fig. 13);
* :mod:`repro.analysis.stats` — pairwise Kolmogorov–Smirnov tests,
  linear/multi-linear regression with significance, a from-scratch
  random forest with feature importances, ROC-AUC, and the combined
  A/B-vs-PDI-PD verdict of Sect. 7.5;
* :mod:`repro.analysis.temporal` — daily price series, regression trend
  lines, revenue deltas, and daily fluctuation (Figs. 14/15);
* :mod:`repro.analysis.reports` — table/series rendering for the
  benchmark harnesses.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".pricediff": [
        "BoxStats", "DomainDiffStats", "box_stats", "country_extremes",
        "domain_diff_stats", "extreme_differences", "peer_bias_distributions",
        "ratio_vs_min_price", "within_country_percentages",
    ],
    ".stats": [
        "ABTestVerdict", "RandomForest", "ab_test_verdict", "ks_pairwise",
        "linear_regression", "roc_auc",
    ],
    ".temporal": [
        "TemporalTrend", "daily_fluctuation", "daily_series", "revenue_delta",
        "trend_for_product",
    ],
    ".reports": ["format_table", "format_percent"],
})
