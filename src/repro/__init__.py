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

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    # deployment facade (``Sheriff`` is the blessed short name)
    ".core.sheriff": ["PriceSheriff", "Sheriff", "SheriffWorld"],
    ".core.config": ["SheriffConfig"],
    ".core.addon": ["SheriffAddon"],
    # job lifecycle: a price check is the Coordinator's JobRecord, which
    # its entry point (a MeasurementServer, or the QueuedMeasurementTier)
    # returns
    ".core.coordinator": ["JobRecord"],
    ".core.engine": ["PriceCheckEngine"],
    ".core.measurement": ["MeasurementServer", "PriceCheckJob"],
    ".core.jobqueue": ["QueuedMeasurementTier"],
    ".core.errors": ["QueueSaturated", "InvalidConfig"],
    # results and analysis
    ".core.pricecheck": ["PriceCheckResult", "ResultRow"],
    ".core.detector": ["PriceVariationReport", "analyze_rows"],
    # storage layer
    ".core.database": ["DatabaseServer"],
    ".storage": ["ShardedDatabase", "StorageBackend", "MemoryBackend",
                 "SqliteBackend", "make_backend"],
    # observability
    ".obs": ["Telemetry"],
    # the price watchdog (Sect. 6): watches *products*
    ".core.watchdog": ["Watchdog", "WatchAlert"],
    # the operations layer: watches *the service itself*
    ".ops": ["Supervisor", "build_supervisor", "RestartPolicy", "KillSwitch",
             "AuditTrail", "OpsEvent", "Notifier", "LogNotifier"],
    # deployment builders
    ".workloads.deployment": ["DeploymentConfig", "LiveDeployment"],
})
__all__ += ["__version__"]
