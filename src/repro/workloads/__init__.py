"""Workload generators: the experiments' worlds, users, and drivers.

* :mod:`repro.workloads.alexa` — the synthetic content web (the "Alexa
  top domains" popularity ranking) and the Alexa top-400 e-commerce
  roster of Sect. 7.6;
* :mod:`repro.workloads.population` — the geo-distributed user base with
  Zipf-like browsing histories (Table 2 country mix);
* :mod:`repro.workloads.stores` — the calibrated retailer roster: every
  domain named in the paper with a pricing policy tuned to reproduce its
  reported behaviour;
* :mod:`repro.workloads.deployment` — the live-deployment simulation
  (Sect. 6) and the Fig. 5 adoption model;
* :mod:`repro.workloads.cell` — one measurement cell (seeded honest
  stores + sheriff + users) from a config: what each mesh worker
  serves;
* :mod:`repro.workloads.crawlstudy` — the systematic study drivers
  (Sect. 7): multi-country crawls, the four-country case studies, the
  temporal study, the Alexa-400 sweep;
* :mod:`repro.workloads.perfmodel` — the Table 1 queueing model of the
  old and new back-end architectures;
* :mod:`repro.workloads.journey` — the seeded forced-steal drill behind
  ``repro journey`` / ``repro slo``: one run whose jobs are provably
  admitted, queued, stolen, and persisted under full telemetry.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".alexa": ["ContentWeb", "build_alexa_ecommerce"],
    ".population": ["Population", "PopulationConfig"],
    ".stores": ["build_named_stores", "named_store_specs"],
    ".deployment": [
        "DeploymentConfig", "DeploymentDataset", "LiveDeployment", "adoption_series",
    ],
    ".crawlstudy": ["CrawlStudy", "four_country_case_study", "temporal_study"],
    ".perfmodel": ["PerformanceModel", "PerfRow", "run_table1"],
})
