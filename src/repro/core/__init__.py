"""The Price $heriff core: the seven components of Fig. 1.

* :mod:`repro.core.tagspath` — Tags Path construction & price extraction
  (Sect. 3.3);
* :mod:`repro.core.whitelist` — sanctioned-domain filtering and the PII
  URL blacklist (Sect. 2.3);
* :mod:`repro.core.database` — the shared Database server (Sect. 3.1.1);
* :mod:`repro.core.diffstorage` — the DiffStorage module of the
  Measurement server (App. 10.5);
* :mod:`repro.core.dispatch` — the price check request distribution
  protocol (Sect. 3.4);
* :mod:`repro.core.coordinator` / :mod:`repro.core.aggregator` — the two
  non-colluding back-end roles (the Coordinator mints the
  :class:`JobRecord` a price check is);
* :mod:`repro.core.measurement` — the Measurement server;
* :mod:`repro.core.addon` — the browser add-on (View, Collector, Peer
  handler, Sandbox, Controller modules);
* :mod:`repro.core.pricecheck` — result rows and the Fig. 2 result page;
* :mod:`repro.core.detector` — price-variation classification;
* :mod:`repro.core.monitoring` — the Figs. 7/16 monitoring panels;
* :mod:`repro.core.engine` — the pipelined price-check engine (worker
  pools and page cache);
* :mod:`repro.core.jobqueue` — the queued measurement tier, the other
  entry point that returns a job's record;
* :mod:`repro.core.errors` — the typed :class:`SheriffError` hierarchy;
* :mod:`repro.core.config` — :class:`SheriffConfig`, the one declaration
  of every deployment knob;
* :mod:`repro.core.sheriff` — the facade that wires a full deployment.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".errors": ["SheriffError"],
    ".engine": ["PageCache", "PriceCheckEngine"],
    ".tagspath": ["TagsPath", "extract_price_text", "select_tags_path"],
    ".whitelist": ["Whitelist"],
    ".database": ["DatabaseServer"],
    ".diffstorage": ["DiffStorage"],
    ".dispatch": ["NoServerAvailable", "RequestDistributor", "ServerRecord"],
    ".pricecheck": ["PriceCheckResult", "ResultRow"],
    ".coordinator": ["Coordinator", "JobRecord", "RequestRejected"],
    ".aggregator": ["Aggregator"],
    ".measurement": ["MeasurementServer", "PriceCheckJob"],
    ".addon": ["SheriffAddon"],
    ".detector": ["PriceVariationReport", "analyze_rows"],
    ".config": ["SheriffConfig"],
    ".sheriff": ["PriceSheriff", "SheriffWorld"],
    ".admin": ["AdminConsole", "ProbeFailed"],
    ".pii_audit": ["PiiAuditReport", "run_pii_audit"],
})
