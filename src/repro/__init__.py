"""Price $heriff — a watchdog service for e-commerce price discrimination.

A faithful, fully self-contained Python reproduction of

    Iordanou, Soriente, Sirivianos, Laoutaris.
    "Who is Fiddling with Prices? Building and Deploying a Watchdog
    Service for E-commerce." SIGCOMM 2017.

The package provides the complete system — browser add-on, Coordinator,
Measurement servers, Database server, IPC/PPC proxy network, Aggregator,
doppelgangers, and the privacy-preserving k-means protocol — plus the
simulated substrates the real deployment ran against (an e-commerce web
with configurable pricing policies, browsers with cookies/history/
sandboxing, a tracker ecosystem, synthetic geography) and the analysis
and workload machinery that regenerates every table and figure of the
paper's evaluation.

Quick start::

    from repro import PriceSheriff, SheriffWorld

    world = SheriffWorld.create(seed=42)
    # ...register stores on world.internet...
    sheriff = PriceSheriff(world)
    addon = sheriff.install_addon(world.make_browser("ES", "Madrid"))
    result = addon.check_price("http://store.example/product/p-1")
    print(result.render_result_page())

See ``examples/`` for runnable walkthroughs and ``benchmarks/`` for the
per-table/figure reproduction harnesses.
"""

from repro.core.config import SheriffConfig
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.core.addon import SheriffAddon
from repro.core.database import DatabaseServer
from repro.core.engine import JobHandle, PriceCheckEngine
from repro.core.errors import InvalidConfig, JobDeadLettered, QueueSaturated
from repro.core.jobqueue import QueuedMeasurementTier
from repro.core.measurement import MeasurementServer, PriceCheckJob
from repro.core.pricecheck import PriceCheckResult, ResultRow
from repro.core.detector import PriceVariationReport, analyze_rows
from repro.core.watchdog import WatchAlert, Watchdog
from repro.obs import Telemetry
from repro.ops import (
    AuditTrail,
    KillSwitch,
    LogNotifier,
    Notifier,
    OpsEvent,
    RestartPolicy,
    Supervisor,
    build_supervisor,
)
from repro.storage import (
    MemoryBackend,
    ShardedDatabase,
    SqliteBackend,
    StorageBackend,
    make_backend,
)
from repro.workloads.deployment import DeploymentConfig, LiveDeployment

#: ``Sheriff`` is the blessed short name for the deployment facade.
Sheriff = PriceSheriff

__version__ = "1.0.0"

__all__ = [
    # deployment facade
    "PriceSheriff",
    "Sheriff",
    "SheriffConfig",
    "SheriffWorld",
    "SheriffAddon",
    # job lifecycle: a price check is the JobHandle its entry point (a
    # MeasurementServer, or the QueuedMeasurementTier) returns
    "JobHandle",
    "MeasurementServer",
    "QueuedMeasurementTier",
    "PriceCheckJob",
    "PriceCheckEngine",
    "QueueSaturated",
    "JobDeadLettered",
    "InvalidConfig",
    # results and analysis
    "PriceCheckResult",
    "ResultRow",
    "PriceVariationReport",
    "analyze_rows",
    # storage layer
    "DatabaseServer",
    "ShardedDatabase",
    "StorageBackend",
    "MemoryBackend",
    "SqliteBackend",
    "make_backend",
    # observability
    "Telemetry",
    # the price watchdog (Sect. 6): watches *products*
    "Watchdog",
    "WatchAlert",
    # the operations layer: watches *the service itself*
    "Supervisor",
    "build_supervisor",
    "RestartPolicy",
    "KillSwitch",
    "AuditTrail",
    "OpsEvent",
    "Notifier",
    "LogNotifier",
    # deployment builders
    "DeploymentConfig",
    "LiveDeployment",
    "__version__",
]
