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
  non-colluding back-end roles;
* :mod:`repro.core.measurement` — the Measurement server;
* :mod:`repro.core.addon` — the browser add-on (View, Collector, Peer
  handler, Sandbox, Controller modules);
* :mod:`repro.core.pricecheck` — result rows and the Fig. 2 result page;
* :mod:`repro.core.detector` — price-variation classification;
* :mod:`repro.core.monitoring` — the Figs. 7/16 monitoring panels;
* :mod:`repro.core.engine` — the pipelined price-check engine (worker
  pools, page cache, and the :class:`JobHandle` a price check is);
* :mod:`repro.core.jobqueue` — the queued measurement tier, the other
  entry point a handle comes from;
* :mod:`repro.core.errors` — the typed :class:`SheriffError` hierarchy;
* :mod:`repro.core.config` — :class:`SheriffConfig`, the one declaration
  of every deployment knob;
* :mod:`repro.core.sheriff` — the facade that wires a full deployment.
"""

from repro.core.errors import SheriffError
from repro.core.engine import JobHandle, PageCache, PriceCheckEngine
from repro.core.tagspath import TagsPath, extract_price_text, select_tags_path
from repro.core.whitelist import Whitelist
from repro.core.database import DatabaseServer
from repro.core.diffstorage import DiffStorage
from repro.core.dispatch import NoServerAvailable, RequestDistributor, ServerRecord
from repro.core.pricecheck import PriceCheckResult, ResultRow
from repro.core.coordinator import Coordinator, RequestRejected, RequestTicket
from repro.core.aggregator import Aggregator
from repro.core.measurement import MeasurementServer, PriceCheckJob
from repro.core.addon import SheriffAddon
from repro.core.detector import PriceVariationReport, analyze_rows
from repro.core.config import SheriffConfig
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.core.admin import AdminConsole, ProbeFailed
from repro.core.persistence import load_results, save_results
from repro.core.pii_audit import PiiAuditReport, run_pii_audit

__all__ = [
    "JobHandle",
    "PageCache",
    "PriceCheckEngine",
    "SheriffError",
    "TagsPath",
    "extract_price_text",
    "select_tags_path",
    "Whitelist",
    "DatabaseServer",
    "DiffStorage",
    "NoServerAvailable",
    "RequestDistributor",
    "ServerRecord",
    "PriceCheckResult",
    "ResultRow",
    "Coordinator",
    "RequestRejected",
    "RequestTicket",
    "Aggregator",
    "MeasurementServer",
    "PriceCheckJob",
    "SheriffAddon",
    "PriceVariationReport",
    "analyze_rows",
    "PriceSheriff",
    "SheriffConfig",
    "SheriffWorld",
    "AdminConsole",
    "ProbeFailed",
    "load_results",
    "save_results",
    "PiiAuditReport",
    "run_pii_audit",
]
