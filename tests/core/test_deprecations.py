"""The deprecated compatibility surface is gone.

PR 4 unified the job-lifecycle and telemetry conventions and left the
old entry points (``start_price_check``/``handle_price_check`` and the
``bind_metrics`` aliases) behind as ``DeprecationWarning`` wrappers.
They are removed outright — the unified submit/poll/result surface
is the only one.  These tests pin the
removal: the old names neither exist nor are referenced anywhere under
``src/``.

PR 12 collapsed the price-check mode lattice the same way: the
``pipelined`` / ``use_fast_extract`` switches and ``transport="direct"``
are pinned absent below.  PR 14 did the same to the crypto layer's
``use_fastexp`` switch and the ``cryptobench`` verb that timed it.
PR 20 retired the rest of the pre-``bench/`` harness: the ``throughput``
/ ``scalebench`` / ``storagebench`` / ``bench`` verbs and their modules.
``SimTransport`` then absorbed the ``SimNetwork``/``Host`` carrier, and
the flight recorder became the queue tier's only event log.  Last,
telemetry got one way in — every component takes the deployment's
``Telemetry`` as its ``telemetry=`` constructor keyword — and the late
``bind_telemetry`` calls, the ``metrics=`` registries and the
process-global instrument binders went.  Then a price check became the
one ``JobHandle`` its entry point returns: the ``JobAPI`` protocol, the
``sheriff.jobs`` façade, ``PendingCheck``, ``QueuedHandle``,
``EngineJob``, ``gather`` and the per-component job tables went.  Last,
the price-difference rule was decided once, in ``repro.core.detector``:
the re-declared tolerances, the ``tolerance=`` / ``epsilon=`` /
``spread_alert_delta=`` parameters and the two streaming classes went.
Then a job's journey spans became its one record: the flight recorder
that logged the same queue decisions beside them went, with
``Telemetry.flights`` and ``journey()["events"]``, and so did the
``FileNotifier`` (the audit trail's own JSON lines, again) and the
``WebhookNotifier`` stub that never delivered.  Last, the Coordinator's
job record became the one record of which server holds a job: the
server list's job map, its per-job methods and plain lifecycle ints,
and the queue tier's copy of the owner went.  Then the Coordinator
became the one place a failover is decided: ``reassign_job``,
``exclude_job``, the queue tier's offline steal and its dead-letter
store went, with six ``build_supervisor`` parameters nobody set.
Then a stored page became one immutable record: DiffStorage's
``_StoredDiff`` tree and its test-only ``naive_chars(pages)`` went.
Then a deployment got one Database server on one engine: ``db_shards``,
``db_backend=None`` with its ``REPRO_DB_BACKEND`` switch, and the
per-shard staleness plumbing went.  Then the transport came to carry
only the calls that are made: Measurement servers became database
clients, and their stub endpoints, ``take_offline`` /
``restart_endpoint``, the ``ping`` / ``count`` verbs and the connection
pool that the handler's lock already serialised went.  Then each count
got one record: a metric that repeats a component's own field samples
it when scraped, and ``FaultStats``, ``FaultPlan.stats``, the
``_sync_*`` helpers and the ``WorkerPool`` gauges went.  Then a job got
one record: a server's load is the Coordinator's pending records, so
``ServerRecord.jobs``, the distributor's ``take`` / ``move`` /
``release`` / ``pending_jobs``, ``Coordinator.journey_spans`` and
``RequestTicket`` went, with ``queue_steal_threshold=None`` and
``add_anomaly_detector(action=)``.  Then ``src/`` came to hold what a
verb, an example or a mesh worker runs (``tests/reach_census.py``): the
search-steering extension with ``EStore.search`` and ``SteeringPolicy``,
dataset persistence, ``enable_doppelgangers``, ``PriceSheriff.check_price``,
``EventLoop.spawn``, ``daily_ticks``, ``to_jsonl`` and the PII audit's
per-shard branch went.  Then the world clock became the one timeline:
the engine's private clock and ``sheriff_engine_clock_seconds`` went,
least-jobs became the only dispatch policy (``dispatch_policy``,
``round_robin``, ``DISPATCH_POLICIES`` and ``DispatchConfigError``
went), the queue tier kept one admission stamp (``enqueued_at`` went)
and the event loop lost what only tests reached: ``EventHandle``,
cancellation, ``peek_next``, ``pending`` and ``processed``.  Then a
price check became its Coordinator ``JobRecord``: ``JobHandle`` and the
engine's state constants, the queue tier's ``QueuedJob`` wrapper and its
``admitted_at`` stamp, ``QuorumNotMet``, the engine's ``error=``
parameter and ``jobs_scheduled``, and the tracer's ``duration=`` went.
Then state nothing read and parameters nothing set went (the reach
census's two static passes): the trackers' visit log, the stores'
request log, write-only counters, the peer records' ``online`` flag that
was never false, exchange-rate drift, and the defaults no call
overrode, which became constants.
"""

import dataclasses
import importlib
import inspect
import json
import pathlib
import pkgutil
import re

import pytest

from repro.cli import main
from repro.core.config import SheriffConfig
from repro.core.database import DatabaseServer
from repro.core.engine import PageCache
from repro.core.errors import InvalidConfig
from repro.core.measurement import MeasurementServer
from repro.core.sheriff import PriceSheriff, SheriffWorld
from repro.core.tagspath import extract_price_text
from repro.crypto.elgamal import VectorElGamal
from repro.crypto.fe import InnerProductFE
from repro.crypto.secure_kmeans import (
    KMeansAggregator,
    KMeansCoordinator,
    run_secure_kmeans,
)
from repro.net.faults import BackoffPolicy, chaos_plan
from repro.net.p2p import PeerOverlay
from repro.storage import ShardedDatabase
from repro.workloads.deployment import DeploymentConfig


def _source_offenders(pattern):
    """``file:line: text`` of every line under src/ the regex matches."""
    root = pathlib.Path(__file__).resolve().parents[2] / "src"
    return [
        f"{path.name}:{i}: {line.strip()}"
        for path in root.rglob("*.py")
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


class TestLifecycleWrappersRemoved:
    def test_measurement_server_wrappers_gone(self):
        assert not hasattr(MeasurementServer, "start_price_check")
        assert not hasattr(MeasurementServer, "handle_price_check")


class TestBindMetricsAliasesRemoved:
    def test_database_server(self):
        assert not hasattr(DatabaseServer(), "bind_metrics")

    def test_sharded_database(self):
        assert not hasattr(ShardedDatabase(n_shards=2), "bind_metrics")

    def test_page_cache(self):
        assert not hasattr(PageCache(ttl=10.0), "bind_metrics")

    def test_peer_overlay(self):
        assert not hasattr(PeerOverlay(), "bind_metrics")

    def test_fault_plan(self):
        assert not hasattr(chaos_plan("lossy", seed=1), "bind_metrics")


def test_deprecated_names_absent_from_source():
    """No definition or call of the removed entry points survives
    anywhere under src/."""
    assert _source_offenders(re.compile(
        r"(def |\.)(handle_price_check|start_price_check|bind_metrics)\("
    )) == []


class TestModeLatticeCollapsed:
    """One production path per price check: the ``pipelined`` and
    ``use_fast_extract`` switches and ``transport="direct"`` are gone,
    not merely defaulted; so is the crypto layer's ``use_fastexp``."""

    REMOVED = ("pipelined", "use_fast_extract")

    def test_no_such_parameter_or_field(self):
        for fn in (
            PriceSheriff.__init__, MeasurementServer.__init__,
            extract_price_text,
        ):
            params = inspect.signature(fn).parameters
            assert not set(self.REMOVED) & set(params), fn
        # the sheriff's knobs arrive as **overrides of SheriffConfig, so
        # its field list is the accepted keyword list
        for config in (SheriffConfig, DeploymentConfig):
            fields = {f.name for f in dataclasses.fields(config)}
            assert not {*self.REMOVED, "backoff"} & fields, config

    @pytest.mark.parametrize(
        "kwargs",
        [{"pipelined": True}, {"use_fast_extract": False},
         {"backoff": BackoffPolicy()}],
    )
    def test_sheriff_rejects_the_old_keywords(self, kwargs):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            PriceSheriff(
                SheriffWorld.create(seed=1), whitelist_domains=[], **kwargs
            )
        for fn in (
            VectorElGamal.__init__, InnerProductFE.__init__,
            KMeansCoordinator.__init__, KMeansAggregator.__init__,
            run_secure_kmeans,
        ):
            assert "use_fastexp" not in inspect.signature(fn).parameters, fn

    @pytest.mark.parametrize(
        "data", [{"pipelined": True}, {"use_fast_extract": False}]
    )
    def test_config_rejects_the_old_keys_by_name(self, data):
        (key,) = data
        with pytest.raises(InvalidConfig, match=key):
            DeploymentConfig.from_dict(data)

    def test_direct_transport_rejected(self):
        with pytest.raises(ValueError, match="direct"):
            PriceSheriff(
                SheriffWorld.create(seed=1), whitelist_domains=[],
                transport="direct",
            )
        with pytest.raises(InvalidConfig, match="direct"):
            DeploymentConfig(transport="direct").validate()

    @pytest.mark.parametrize(
        "argv", [["parsebench"], ["bench", "--include", "parse"],
                 ["bench", "--require-parse-speedup", "3"]],
    )
    def test_parsebench_is_an_argparse_error(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    @pytest.mark.parametrize(
        "argv", [["cryptobench"], ["bench", "--include", "crypto"],
                 ["bench", "--require-crypto-speedup", "3"]],
    )
    def test_cryptobench_is_an_argparse_error(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_cryptobench_not_exported(self):
        import repro.workloads

        for name in ("CryptoBenchConfig", "run_cryptobench", "cryptobench"):
            assert not hasattr(repro.workloads, name)
            assert name not in repro.workloads.__all__

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"use_fast_extract|observe_serial_check|\bpipelined\s*[=:]"
            r"|use_fastexp|cryptobench"
            r"|ephemeral_table|_PowProxy|EPHEMERAL_MIN_USES"
        )) == []


class TestSimBenchRetired:
    """``bench/`` is the only benchmark harness: the four sim-clock bench
    verbs, their modules and the artefact they committed are gone."""

    VERBS = ("throughput", "scalebench", "storagebench", "bench")
    MODULES = ("throughput", "scalebench", "storagebench", "benchsuite")

    @pytest.mark.parametrize("verb", VERBS)
    def test_verb_is_an_argparse_error(self, verb):
        with pytest.raises(SystemExit):
            main([verb])

    def test_modules_gone(self):
        import repro.workloads

        package_dir = pathlib.Path(repro.workloads.__file__).parent
        for name in self.MODULES:
            assert not hasattr(repro.workloads, name)
            assert not (package_dir / f"{name}.py").exists()

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"run_throughput|run_scalebench|run_storagebench|run_benchsuite"
            r"|BENCH_(throughput|scale|storage|all)\.json"
        )) == []

    def test_committed_artefact_gone(self):
        root = pathlib.Path(__file__).resolve().parents[2]
        assert not (root / "BENCH_throughput.json").exists()


class TestDuplicateVerbsRetired:
    """Each verb and experiment is listed once: ``perf`` printed what
    ``reproduce table1`` prints, ``panels`` a subset of ``panel``,
    ``chaos --supervised`` a subset of ``supervise``, and
    ``examples/reproduce_all.py`` what ``reproduce all`` prints."""

    @pytest.mark.parametrize(
        "argv", [["perf"], ["panels"], ["chaos", "--supervised"]],
    )
    def test_is_an_argparse_error(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    def test_second_lists_gone(self):
        root = pathlib.Path(__file__).resolve().parents[2]
        assert not (root / "examples" / "reproduce_all.py").exists()
        assert _source_offenders(re.compile(
            r"EXPERIMENT_CHOICES|_positive_int|_cmd_perf|_cmd_panels"
        )) == []

    def test_journey_config_redeclares_no_knob(self):
        from repro.workloads.journey import JourneyConfig

        fields = {f.name for f in dataclasses.fields(JourneyConfig)}
        assert not {"n_servers", "use_queue", "telemetry_enabled"} & fields
        assert issubclass(JourneyConfig, SheriffConfig)


class TestSimNetworkSurfaceRetired:
    """Transport is the only messaging surface, and ``SimTransport`` the
    whole sim backend: the ``SimNetwork``/``Host`` carrier it rode on,
    the transport parameters no caller set and the queue tier's second
    event log are gone."""

    def test_simnetwork_not_exported(self):
        import repro.net

        assert not hasattr(repro.net, "SimNetwork")
        assert not hasattr(repro.net, "Host")
        assert "SimNetwork" not in repro.net.__all__
        assert "Host" not in repro.net.__all__

    def test_transport_surface_exported_instead(self):
        from repro.net import SimTransport, SocketTransport, Transport

        assert issubclass(SimTransport, Transport)
        assert issubclass(SocketTransport, Transport)

    def test_carrier_and_queue_event_log_gone(self):
        import repro.net.events
        import repro.net.faults
        import repro.net.sim

        for name in ("SimNetwork", "Host", "_Transfer"):
            assert not hasattr(repro.net.sim, name), name
        for name in ("EventLog", "NetEvent"):
            assert not hasattr(repro.net.events, name), name
        assert not hasattr(repro.net.faults, "ROLE_HOST")

    def test_transport_parameters_no_caller_set_gone(self):
        from repro.core.jobqueue import QueuedMeasurementTier
        from repro.net import SimTransport, SocketTransport, Transport

        params = inspect.signature(SimTransport.__init__).parameters
        assert list(params) == ["self", "max_frame_bytes", "telemetry"]
        assert "rng_seed" not in inspect.signature(SocketTransport).parameters
        for cls in (Transport, SimTransport, SocketTransport):
            for method in (cls.bind, cls.register_client):
                assert "location" not in inspect.signature(method).parameters
        tier = inspect.signature(QueuedMeasurementTier).parameters
        assert not {"clock", "event_log"} & set(tier)


def test_no_simnetwork_import_outside_net_layer():
    """No component imports a SimNetwork/Host carrier — the Transport
    seam is the only way to send a message."""
    root = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    offenders = []
    pattern = re.compile(r"\b(SimNetwork|(?<!_)Host)\b")
    for path in root.rglob("*.py"):
        if path.parent.name == "net":
            continue
        for i, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("#"):
                continue
            if "import" in line and pattern.search(line):
                offenders.append(f"{path.name}:{i}: {line.strip()}")
    assert offenders == []


class TestOneWayInForTelemetry:
    """Every instrumented component takes ``telemetry=`` when it is
    built; nothing binds it later, and no module keeps instrument slots
    of its own."""

    def test_binders_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"def (bind_telemetry|_bind_registry|bind_instruments"
            r"|bind_extraction_telemetry|unbind_\w*telemetry)\b"
            r"|\b(get|set)_default_registry\b|\bmetrics_only\b"
            r"|\bmetrics=None\b|crypto\.obs\b"
        )) == []

    def test_crypto_obs_module_gone(self):
        import importlib.util

        import repro.crypto

        assert importlib.util.find_spec("repro.crypto.obs") is None
        for name in ("bind_crypto_telemetry", "unbind_crypto_telemetry"):
            assert not hasattr(repro.crypto, name), name

    def test_settable_values_nobody_set_gone(self):
        import repro.obs
        from repro.obs import Telemetry

        assert list(inspect.signature(Telemetry).parameters) == ["enabled"]
        for name in ("get_default_registry", "set_default_registry"):
            assert not hasattr(repro.obs, name), name
            assert not hasattr(repro.obs.metrics, name), name
        # ``transport`` is the config field only: no Transport instance
        assert "transport" not in inspect.signature(PriceSheriff).parameters


class TestOneJobHandle:
    """A price check is the one object its entry point returns (since
    ISSUE 48 the Coordinator's ``JobRecord``): no job-API protocol or
    façade, no mirrored queued handle, no engine envelope and no
    per-component job table."""

    def test_jobapi_module_gone(self):
        import importlib.util

        assert importlib.util.find_spec("repro.core.jobapi") is None

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"\b(JobAPI|SheriffJobs|PendingCheck|QueuedHandle|EngineJob)\b"
            r"|\bdef gather\b|\.gather\(|_handles\b|\bsheriff\.jobs\b"
        )) == []

    def test_no_jobs_facade_or_job_tables(self):
        from repro.core.jobqueue import QueuedMeasurementTier

        assert not hasattr(PriceSheriff, "jobs")
        sheriff = PriceSheriff(
            SheriffWorld.create(seed=1), whitelist_domains=[], job_queue=True,
        )
        assert not hasattr(sheriff, "jobs")
        for component in (*sheriff.measurement_servers.values(), sheriff.job_queue):
            assert not hasattr(component, "_handles"), component
        for cls in (MeasurementServer, QueuedMeasurementTier):
            assert not hasattr(cls, "gather"), cls


class TestOneDifferenceRule:
    """Whether prices differ is decided once, in ``repro.core.detector``:
    no second tolerance, no parameter that picks another rule, and no
    streaming class that re-derived the verdict beside it."""

    RULE_PARAMETERS = {"tolerance", "epsilon", "spread_alert_delta"}

    @staticmethod
    def _public_callables():
        import repro.analysis

        modules = ["repro.core.detector", "repro.core.pricecheck",
                   "repro.core.watchdog"] + [
            f"repro.analysis.{info.name}"
            for info in pkgutil.iter_modules(repro.analysis.__path__)
        ]
        for name in modules:
            module = importlib.import_module(name)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if inspect.isclass(obj):
                    yield f"{name}.{attr}", obj
                    for meth, fn in vars(obj).items():
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            yield f"{name}.{attr}.{meth}", fn
                elif inspect.isfunction(obj):
                    yield f"{name}.{attr}", obj

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"\b(VariationAccumulator|PriorStudyTracker|DIFFERENCE_TOLERANCE"
            r"|DEFAULT_TOLERANCE|_median|worst_within_country|min_max_eur)\b"
        )) == []

    def test_no_callable_takes_a_rule_parameter(self):
        offenders = []
        for qualname, fn in self._public_callables():
            params = set(inspect.signature(fn).parameters)
            if params & self.RULE_PARAMETERS:
                offenders.append(qualname)
        assert offenders == []


class TestOneJourneyRecord:
    """A job's life is recorded once, as journey spans chained through
    the Coordinator: no flight recorder beside the tracer, no second
    chain in the queue tier, and no notifier that duplicated the audit
    trail or never delivered."""

    def test_flightrecorder_module_gone(self):
        import importlib.util

        assert importlib.util.find_spec("repro.obs.flightrecorder") is None

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"flights|FlightRecorder|FlightEvent|FLIGHT_RECORDER"
            r"|FileNotifier|WebhookNotifier"
        )) == []

    def test_names_not_exported(self):
        import repro.obs
        import repro.ops
        import repro.ops.notifiers

        for name in ("FlightEvent", "FlightRecorder", "NullFlightRecorder",
                     "NULL_FLIGHT_RECORDER"):
            assert not hasattr(repro.obs, name), name
            assert name not in repro.obs.__all__, name
        for name in ("FileNotifier", "WebhookNotifier"):
            assert not hasattr(repro.ops, name), name
            assert not hasattr(repro.ops.notifiers, name), name
            assert name not in repro.ops.__all__, name

    def test_telemetry_holds_one_registry_and_one_tracer(self):
        from repro.net.events import Clock
        from repro.obs import NULL_TELEMETRY, Telemetry

        for telemetry in (Telemetry().bind_clock(Clock()), NULL_TELEMETRY):
            assert set(vars(telemetry)) == {"enabled", "registry", "tracer"}

    def test_journey_has_no_events_and_the_tier_no_second_chain(self):
        from repro.obs import Telemetry

        sheriff = PriceSheriff(
            SheriffWorld.create(seed=1), whitelist_domains=[],
            job_queue=True, telemetry=Telemetry(),
        )
        assert set(sheriff.journey("job-1")) == {
            "job_id", "spans", "ticket",
        }
        for name in ("_journey", "_journey_parent", "flights"):
            assert not hasattr(sheriff.job_queue, name), name


class TestDatabaseSurfaceTrimmed:
    """The Database tier keeps the procedures the system calls: no
    per-row response write, no ``scan`` wrappers, no per-domain or
    per-user counts (nor the engine ``group_count`` under them), no
    facade or router ``insert_many``, no per-row router write path, and
    no router delete that sent shard-local ids to every shard."""

    REMOVED = (
        "sp_record_response", "sp_all_requests", "sp_all_responses",
        "sp_requests_by_domain", "sp_requests_by_user", "group_count",
        "_route_row", "open_jobs",
    )

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(
            re.compile(r"\b(" + "|".join(self.REMOVED) + r")\b")
        ) == []

    def test_insert_many_is_the_engines_alone(self):
        offenders = _source_offenders(re.compile(r"def insert_many\b"))
        assert [line.split(":")[0] for line in offenders] == ["backend.py"]

    def test_names_gone_from_the_classes(self):
        from repro.core.coordinator import Coordinator
        from repro.core.database import DB_RPC_METHODS, DatabaseClient
        from repro.storage import MemoryBackend, SqliteBackend, StorageBackend

        for cls in (DatabaseServer, DatabaseClient, ShardedDatabase):
            for name in self.REMOVED[:5]:
                assert not hasattr(cls, name), (cls.__name__, name)
        assert not hasattr(DatabaseServer, "insert_many")
        for name in ("insert", "insert_many", "_route_row", "delete_rows"):
            assert not hasattr(ShardedDatabase, name), name
        for cls in (StorageBackend, MemoryBackend, SqliteBackend):
            assert not hasattr(cls, "group_count"), cls.__name__
        assert not hasattr(Coordinator, "open_jobs")
        assert "sp_record_response" not in DB_RPC_METHODS


class TestOneOwnerRecordPerJob:
    """The Coordinator's ``JobRecord.server_name`` is the one record of
    which Measurement server holds a job: the server list lost its job
    map, its per-job methods and its plain lifecycle ints, and the queue
    tier reads the owner from the record instead of keeping a copy."""

    DISTRIBUTOR_REMOVED = (
        "_job_server", "assign_job", "reassign_job", "transfer_job",
        "jobs_on", "_release", "complete_job", "fail_job",
        "reconcile_lost_job", "assignments", "completions", "failures",
        "reassignments",
    )

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"\b(_job_server|assign_job|complete_job|reconcile_lost_job)\b"
        )) == []
        assert _source_offenders(re.compile(
            r"distributor\.(" + "|".join(self.DISTRIBUTOR_REMOVED) + r")\b"
        )) == []
        assert _source_offenders(re.compile(r"\bqueue\.move\(")) == []

    def test_names_gone_from_the_classes(self):
        from repro.core.dispatch import RequestDistributor
        import repro.core.jobqueue
        from repro.core.jobqueue import JobQueue

        distributor = RequestDistributor()
        for name in self.DISTRIBUTOR_REMOVED:
            assert not hasattr(distributor, name), name
        # the outbox holds the Coordinator's records, not a copy of them
        assert not hasattr(repro.core.jobqueue, "QueuedJob")
        assert not hasattr(JobQueue, "move")

    def test_no_distributor_method_takes_a_job_id(self):
        from repro.core.dispatch import RequestDistributor

        for name, method in inspect.getmembers(
            RequestDistributor, inspect.isfunction
        ):
            params = inspect.signature(method).parameters
            assert not any("job" in p for p in params), name


class TestOneFailoverDecision:
    """The Coordinator is the one place a failover is decided: its
    ``reassign_job`` left the public surface, ``handle_server_failure``
    lost ``exclude_job``, and the queue tier's offline steal and
    dead-letter store went — a failed queued check raises
    ``PriceCheckFailed`` like a failed sent one."""

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"\b(reassign_job|exclude_job|DeadLetter|DeadLetterStore"
            r"|JobDeadLettered|_dead_letter|dead_letters)\b"
        )) == []

    def test_names_gone(self):
        import repro
        import repro.core.errors
        import repro.core.jobqueue
        from repro.core.coordinator import Coordinator

        assert not hasattr(Coordinator, "reassign_job")
        assert "exclude_job" not in inspect.signature(
            Coordinator.handle_server_failure
        ).parameters
        for name in ("DeadLetter", "DeadLetterStore"):
            assert not hasattr(repro.core.jobqueue, name), name
        assert not hasattr(repro.core.errors, "JobDeadLettered")
        assert "JobDeadLettered" not in repro.__all__
        sheriff = PriceSheriff(
            SheriffWorld.create(seed=1), whitelist_domains=[], job_queue=True,
        )
        assert not hasattr(sheriff.job_queue, "dead_letters")
        assert sheriff.job_queue.dead_lettered == 0
        assert "dead_letter" not in sheriff.journey("job-1")

    def test_supervisor_parameters_nobody_set_gone(self):
        from repro.ops.wiring import build_supervisor

        params = inspect.signature(build_supervisor).parameters
        for name in (
            "restart_policy", "max_queue_depth", "max_job_failures_per_tick",
            "shard_staleness", "pollution_max_fraction",
            "queue_backlog_fraction",
        ):
            assert name not in params, name


class TestOneRecordPerStoredPage:
    """DiffStorage keeps each stored page as one ``bytes`` record: the
    ``_StoredDiff`` tree of tuples and strings went, and so did the
    test-only ``naive_chars(pages)`` (the ablation reads
    ``naive_chars_seen``)."""

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(r"\b_StoredDiff\b|\.naive_chars\(")) == []

    def test_names_gone(self):
        import repro.core.diffstorage
        from repro.core.diffstorage import DiffStorage

        assert not hasattr(repro.core.diffstorage, "_StoredDiff")
        assert not hasattr(DiffStorage, "naive_chars")
        assert DiffStorage().naive_chars_seen == 0


class TestOneDatabaseServer:
    """A deployment runs one Database server on the sqlite engine: the
    ``db_shards`` knob, ``db_backend=None`` and the ``REPRO_DB_BACKEND``
    switch behind it went, and so did the per-shard staleness plumbing
    (``shard_last_writes``, the ``stale-shards`` detector)."""

    def test_db_shards_rejected_by_name(self):
        with pytest.raises(TypeError, match="db_shards"):
            PriceSheriff(
                SheriffWorld.create(seed=1), whitelist_domains=[], db_shards=2
            )
        with pytest.raises(InvalidConfig, match="db_shards"):
            SheriffConfig.from_dict({"db_shards": 2})

    def test_db_backend_takes_no_none(self):
        with pytest.raises(InvalidConfig, match="db_backend"):
            SheriffConfig(db_backend=None).validate()
        with pytest.raises(InvalidConfig, match="db_backend"):
            SheriffConfig.from_dict({"db_backend": None})

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"BACKEND_ENV_VAR|REPRO_DB_BACKEND|shard_last_writes|_all_shards_fresh"
            r"|ShardStalenessProbe|SHARD_STALENESS|stale-shards"
        )) == []

    def test_names_gone(self):
        import repro.ops
        import repro.ops.wiring
        import repro.storage.backend
        from repro.core.database import DB_RPC_METHODS, DatabaseClient

        assert "db_shards" not in {f.name for f in dataclasses.fields(SheriffConfig)}
        assert not hasattr(repro.storage.backend, "BACKEND_ENV_VAR")
        for cls in (DatabaseServer, DatabaseClient, ShardedDatabase):
            assert not hasattr(cls, "shard_last_writes"), cls.__name__
        assert "shard_last_writes" not in DB_RPC_METHODS
        assert not hasattr(repro.ops.wiring, "SHARD_STALENESS")
        assert "ShardStalenessProbe" not in repro.ops.__all__

    def test_default_sheriff_runs_on_sqlite_whatever_the_environment(self, monkeypatch):
        from repro.storage import SqliteBackend

        monkeypatch.setenv("REPRO_DB_BACKEND", "memory")
        assert SheriffConfig().db_backend == "sqlite"
        sheriff = PriceSheriff(SheriffWorld.create(seed=1), whitelist_domains=[])
        try:
            assert isinstance(sheriff.db, DatabaseServer)
            assert isinstance(sheriff.db.backend, SqliteBackend)
        finally:
            sheriff.shutdown()


class TestTransportCarriesWhatIsCalled:
    """A Measurement server is a client of the ``db`` endpoint, the one
    endpoint a deployment binds.  The transport lost ``take_offline`` /
    ``restart_endpoint``, the Database endpoint its ``ping`` / ``count``
    verbs, and the Database server the connection pool its handler's
    lock already serialised, with ``ConnectionPoolExhausted`` and the
    ``*_connections_busy`` gauges."""

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"\b(take_offline|restart_endpoint|ConnectionPoolExhausted"
            r"|peak_connections|max_connections|_server_rpc)\b"
            r"|_connections_busy"
        )) == []

    def test_names_gone(self):
        import repro.core.database
        import repro.core.errors
        from repro.core.database import DB_RPC_METHODS, DatabaseClient
        from repro.net import SimTransport, SocketTransport, Transport

        for cls in (Transport, SimTransport, SocketTransport):
            for name in ("take_offline", "restart_endpoint"):
                assert not hasattr(cls, name), (cls.__name__, name)
        for name in ("connection", "max_connections", "peak_connections"):
            assert not hasattr(DatabaseServer(), name), name
            assert not hasattr(ShardedDatabase(n_shards=1), name), name
        for name in ("ping", "count", "connection"):
            assert not hasattr(DatabaseClient, name), name
        assert DB_RPC_METHODS == (
            "sp_record_request", "sp_record_responses", "sp_record_job",
            "sp_responses_for_job",
        )
        for module in (repro.core.errors, repro.core.database):
            assert not hasattr(module, "ConnectionPoolExhausted"), module.__name__
        assert "ConnectionPoolExhausted" not in repro.core.errors.__all__

    def test_no_connection_gauges_declared(self):
        from repro.obs import Telemetry

        sheriff = PriceSheriff(
            SheriffWorld.create(seed=1), whitelist_domains=[], telemetry=True
        )
        try:
            registry = sheriff.telemetry.registry
            assert registry.enabled
            sharded = Telemetry()
            ShardedDatabase(n_shards=2, telemetry=sharded)
            for name in ("sheriff_db_connections_busy",
                         "sheriff_db_router_connections_busy"):
                assert registry.get(name) is None, name
                assert sharded.registry.get(name) is None, name
        finally:
            sheriff.shutdown()

    def test_socket_deployment_listens_on_db_only(self):
        import threading

        def acceptors():
            return {
                t for t in threading.enumerate()
                if t.name.startswith("socket-transport-accept-")
            }

        before = acceptors()
        sheriff = PriceSheriff(
            SheriffWorld.create(seed=1), whitelist_domains=[],
            transport="socket", n_measurement_servers=4,
        )
        try:
            assert [t.name for t in acceptors() - before] == [
                "socket-transport-accept-db"
            ]
            assert sorted(sheriff.transport._endpoints) == ["db"]
        finally:
            sheriff.shutdown()


class TestOneRecordPerFact:
    """A metric family that repeats a count its component keeps is a
    sampled view of that count: ``FaultStats`` and ``FaultPlan.stats``,
    the ``_sync_*`` helpers that copied counts into gauges and
    ``WorkerPool``'s gauge parameters went."""

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"_sync_gauges|_sync_depth|_sync_peer|_sync_gauge\b|FaultStats"
            r"|stats\.bump"
        )) == []

    def test_names_gone(self):
        import repro.net.faults
        from repro.core.engine import WorkerPool

        assert not hasattr(repro.net.faults, "FaultStats")
        assert not hasattr(chaos_plan("lossy", seed=1), "stats")
        parameters = inspect.signature(WorkerPool).parameters
        for name in ("busy_gauge", "queue_gauge"):
            assert name not in parameters, name

    def test_a_sampled_family_has_one_source(self):
        from repro.obs import Telemetry
        from repro.obs.metrics import MetricError, MetricsRegistry

        registry = MetricsRegistry()
        registry.sampled("gauge", "depth", "", (), lambda: 1)
        with pytest.raises(MetricError):
            registry.sampled("gauge", "depth", "", (), lambda: 2)
        with pytest.raises(MetricError):
            registry.counter("depth")
        telemetry = Telemetry()
        PeerOverlay(telemetry=telemetry)
        with pytest.raises(MetricError):
            PeerOverlay(telemetry=telemetry)

    def test_the_null_registry_keeps_no_reader(self):
        import weakref

        from repro.obs.metrics import NULL_REGISTRY

        def read():
            return 1

        held = weakref.ref(read)
        null = NULL_REGISTRY.sampled("counter", "x", "", (), read)
        assert null is NULL_REGISTRY.counter("x")
        del read
        assert held() is None

    def test_telemetry_off_presence_changes_rebuild_no_peer_list(self, monkeypatch):
        from repro.net.geo import Location

        overlay = PeerOverlay()
        rebuilt = []
        monkeypatch.setattr(
            overlay, "online_peers", lambda: rebuilt.append(1) or []
        )
        overlay.register(
            "p1", Location("ES", "Spain", "Madrid", "10.0.0.1"), lambda m: m
        )
        overlay.register(
            "p1", Location("FR", "France", "Paris", "10.0.0.2"), lambda m: m
        )
        assert rebuilt == []


class TestOneRecordOfAJob:
    """The Coordinator's ``JobRecord`` is the one record of where a job
    is and how far it has got: a server's load is the number of pending
    records naming it, the journey chain lives on the record, and
    ``RequestTicket``, the distributor's job counts and
    ``Coordinator.journey_spans`` went.  Then the record became the
    price check itself: the engine's ``JobHandle`` and its states, the
    queue tier's ``QueuedJob`` and its ``admitted_at``, ``QuorumNotMet``
    and the engine's ``error=`` hand-off, ``jobs_scheduled`` and the
    tracer's ``duration=`` went."""

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"RequestTicket|journey_spans|_uncount|\.take\(\)"
            r"|distributor\.(move|release|pending_jobs)"
        )) == []

    def test_request_ticket_gone(self):
        import repro.core
        import repro.core.coordinator

        for module in (repro.core, repro.core.coordinator):
            assert not hasattr(module, "RequestTicket"), module.__name__
            assert "RequestTicket" not in module.__all__, module.__name__

    def test_the_server_list_counts_no_jobs(self):
        from repro.core.dispatch import RequestDistributor, ServerRecord

        assert "jobs" not in {f.name for f in dataclasses.fields(ServerRecord)}
        for name in ("take", "move", "release", "pending_jobs"):
            assert not hasattr(RequestDistributor, name), name

    def test_journey_chain_lives_on_the_record(self):
        from repro.core.coordinator import Coordinator
        from repro.core.dispatch import RequestDistributor
        from repro.core.whitelist import Whitelist
        from repro.net.events import Clock
        from repro.net.geo import GeoDatabase
        from repro.obs import Telemetry

        clock = Clock()
        distributor = RequestDistributor()
        distributor.register_server("ms-0", "10.0.0.1")
        coordinator = Coordinator(
            Whitelist(["shop.example"]), distributor, PeerOverlay(),
            GeoDatabase(), clock, telemetry=Telemetry().bind_clock(clock),
        )
        assert not hasattr(coordinator, "journey_spans")
        location = coordinator.geodb.make_location("ES", "Madrid")
        done, _ = coordinator.new_request(
            "peer-x", "http://shop.example/product/1", location
        )
        failed, _ = coordinator.new_request(
            "peer-x", "http://shop.example/product/1", location
        )
        assert done.journey.name == failed.journey.name == "assign"
        coordinator.job_completed(done.job_id)
        coordinator.fail_job(failed.job_id, "test")
        assert done.journey is None
        assert failed.journey is None

    def test_anomaly_detectors_take_no_action(self):
        from repro.ops.supervisor import Supervisor

        parameters = inspect.signature(Supervisor.add_anomaly_detector).parameters
        assert "action" not in parameters

    def test_steal_threshold_takes_no_none(self):
        with pytest.raises(InvalidConfig, match="queue_steal_threshold"):
            SheriffConfig(queue_steal_threshold=None).validate()
        with pytest.raises(InvalidConfig, match="queue_steal_threshold"):
            SheriffConfig.from_dict({"queue_steal_threshold": None})

    def test_handle_and_hand_off_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"\b(JobHandle|QueuedJob|QuorumNotMet|admitted_at|jobs_scheduled)\b"
        )) == []

    def test_handle_and_hand_off_names_gone(self):
        import repro
        import repro.core
        import repro.core.engine
        import repro.core.errors
        import repro.core.jobqueue
        import repro.core.measurement
        from repro.core.coordinator import JobRecord
        from repro.core.engine import PriceCheckEngine
        from repro.obs.trace import NullTracer, Tracer

        for name in ("JobHandle", "QUEUED", "PENDING", "RUNNING", "DONE", "FAILED"):
            assert not hasattr(repro.core.engine, name), name
        assert not hasattr(repro.core.jobqueue, "QueuedJob")
        assert not hasattr(repro.core.errors, "QuorumNotMet")
        assert not hasattr(repro.core.measurement, "QuorumNotMet")
        assert "QuorumNotMet" not in repro.core.errors.__all__
        assert "JobHandle" not in repro.__all__ + repro.core.__all__
        assert "JobRecord" in repro.__all__ and "JobRecord" in repro.core.__all__
        fields = {f.name for f in dataclasses.fields(JobRecord)}
        assert "running" not in fields and "admitted_at" not in fields
        assert "state" in fields
        assert "error" not in inspect.signature(PriceCheckEngine.submit).parameters
        assert not hasattr(PriceCheckEngine, "schedule")
        for method in (Tracer.span, Tracer.record, NullTracer.span):
            assert "duration" not in inspect.signature(method).parameters

    def test_the_engine_keeps_no_job_count(self):
        sheriff = PriceSheriff(SheriffWorld.create(seed=1))
        assert not hasattr(sheriff.engine, "jobs_scheduled")


class TestWhatNothingReaches:
    """No verb, example or mesh worker reached these; the reach census
    (``tests/reach_census.py``) now fails on an unreached module."""

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"SteeringPolicy|SteeringWatch|enable_steering|enable_doppelgangers"
            r"|repro\.core\.persistence|save_results|load_results"
            r"|daily_ticks|\.spawn\(|to_jsonl"
        )) == []

    def test_modules_gone(self):
        import importlib.util

        import repro.core
        import repro.extensions

        for module in ("repro.extensions.steering", "repro.core.persistence"):
            assert importlib.util.find_spec(module) is None, module
        assert not {"SteeringReport", "SteeringWatch"} & set(repro.extensions.__all__)
        assert not {"load_results", "save_results"} & set(repro.core.__all__)

    def test_names_gone(self):
        import repro.net.events
        import repro.web.store
        from repro.net.events import EventLoop
        from repro.obs.trace import NullTracer, Tracer
        from repro.web.store import EStore

        for name in ("search", "enable_steering"):
            assert not hasattr(EStore, name), name
        assert not hasattr(repro.web.store, "SteeringPolicy")
        assert not hasattr(PriceSheriff, "check_price")
        assert not hasattr(EventLoop, "spawn")
        assert not hasattr(repro.net.events, "daily_ticks")
        for cls in (Tracer, NullTracer):
            assert not hasattr(cls, "to_jsonl"), cls.__name__

    def test_enable_doppelgangers_is_an_unknown_key(self, tmp_path, capsys):
        assert "enable_doppelgangers" not in {
            f.name for f in dataclasses.fields(DeploymentConfig)
        }
        with pytest.raises(InvalidConfig, match="enable_doppelgangers"):
            DeploymentConfig.from_dict({"enable_doppelgangers": True})
        path = tmp_path / "cfg.json"
        config = DeploymentConfig.test_scale().to_dict()
        path.write_text(json.dumps({**config, "enable_doppelgangers": True}))
        assert main(["supervise", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL: invalid config" in out and "enable_doppelgangers" in out

    def test_the_pii_audit_reads_one_database(self):
        import repro.core.pii_audit

        source = inspect.getsource(repro.core.pii_audit)
        assert "repro.storage" not in source
        assert "shards" not in source


class TestOneTimeline:
    """The world's clock is the only timeline and least-jobs the only
    dispatch policy."""

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"dispatch_policy|DISPATCH_POLICIES|DispatchConfigError|EventHandle"
            r"|sheriff_engine_clock_seconds|_m_clock|enqueued_at|peek_next"
            r"|sim_elapsed_seconds|throughput_checks_per_sec"
        )) == []
        # the Table 1 queueing model keeps its own policy for the
        # dispatch ablation; nothing else names round robin
        assert [
            hit for hit in _source_offenders(re.compile(r"round_robin"))
            if not hit.startswith(("perfmodel.py:", "ablations.py:"))
        ] == []

    def test_names_gone(self):
        import repro.core.dispatch
        import repro.core.errors
        import repro.net.events
        from repro.core.coordinator import JobRecord
        from repro.core.dispatch import RequestDistributor
        from repro.net.events import EventLoop

        assert not hasattr(repro.core.dispatch, "DISPATCH_POLICIES")
        assert not hasattr(repro.core.errors, "DispatchConfigError")
        assert "DispatchConfigError" not in repro.core.errors.__all__
        assert not hasattr(repro.net.events, "EventHandle")
        for name in ("pending", "processed", "peek_next"):
            assert not hasattr(EventLoop, name), name
        assert "policy" not in inspect.signature(RequestDistributor).parameters
        assert "enqueued_at" not in {f.name for f in dataclasses.fields(JobRecord)}
        assert "dispatch_policy" not in {
            f.name for f in dataclasses.fields(SheriffConfig)
        }

    def test_the_engine_has_no_clock_of_its_own(self):
        from repro.core.engine import PriceCheckEngine

        loop = inspect.signature(PriceCheckEngine).parameters["loop"]
        assert loop.default is inspect.Parameter.empty
        sheriff = PriceSheriff(SheriffWorld.create(seed=1), telemetry=True)
        try:
            assert sheriff.engine.loop.clock is sheriff.world.clock
            registry = sheriff.telemetry.registry
            assert registry.get("sheriff_engine_clock_seconds") is None
        finally:
            sheriff.shutdown()

    def test_the_event_loop_schedules_without_a_handle(self):
        from repro.net.events import EventLoop

        loop = EventLoop()
        assert loop.call_at(1.0, lambda: None) is None
        assert loop.call_later(1.0, lambda: None) is None

    def test_dispatch_policy_is_an_unknown_key(self, tmp_path, capsys):
        with pytest.raises(TypeError):
            SheriffConfig(dispatch_policy="round_robin")
        with pytest.raises(InvalidConfig, match="dispatch_policy"):
            DeploymentConfig.from_dict({"dispatch_policy": "least_jobs"})
        path = tmp_path / "cfg.json"
        config = DeploymentConfig.test_scale().to_dict()
        path.write_text(json.dumps({**config, "dispatch_policy": "round_robin"}))
        assert main(["supervise", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL: invalid config" in out and "dispatch_policy" in out


class TestWhatNoRunCalls:
    """The def-level reach gate: progressive polls, automatic k, runtime
    attach/detach, the product-country jitter policy and the test-only
    conveniences no verb, example, mesh worker or benchmark workload
    called are gone from ``src/`` and from their hubs."""

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"POLL_BATCH_ROWS|rows_arrived|rows_delivered|\.landings\b"
            r"|def poll\b|def pump\(self, record"
            r"|default_k|choose_k|best_silhouette|squared_distance"
            r"|attach_measurement_server|detach_measurement_server|def self_test"
            r"|remove_measurement_server|def remove_server|drop_pool"
            r"|ProductCountryJitterPricing|ServerBusy|ProbeFailed|KillSwitchTripped"
            r"|CallableProbe|CallbackNotifier|frame_sizes|currency_for_code"
            r"|clear_dlog_cache|clear_fastexp_cache|def roc_auc|format_percent"
        )) == []

    def test_names_gone(self):
        import repro.analysis.reports
        import repro.analysis.stats
        import repro.core.errors
        import repro.net.protocol
        import repro.profiles.kmeans
        import repro.web.pricing
        from repro.browser.browser import Browser
        from repro.browser.cookies import CookieJar
        from repro.browser.history import BrowserHistory
        from repro.core.admin import AdminConsole
        from repro.core.coordinator import JobRecord
        from repro.core.dispatch import RequestDistributor
        from repro.core.engine import PriceCheckEngine
        from repro.core.jobqueue import QueuedMeasurementTier
        from repro.core.whitelist import Whitelist
        from repro.net.p2p import PeerOverlay
        from repro.net.socket_transport import SocketTransport
        from repro.net.transport import SimTransport
        from repro.obs.metrics import MetricsRegistry, NullRegistry
        from repro.ops.killswitch import KillSwitch
        from repro.workloads.population import Population

        for name in ("poll", "pump", "drop_pool"):
            assert not hasattr(PriceCheckEngine, name), name
        for cls in (MeasurementServer, QueuedMeasurementTier):
            assert not hasattr(cls, "poll"), cls.__name__
        assert not hasattr(MeasurementServer, "self_test")
        fields = {f.name for f in dataclasses.fields(JobRecord)}
        assert not fields & {"rows_arrived", "rows_delivered", "landings"}
        assert "closed" in fields
        for name in ("default_k", "choose_k_from_donors", "remove_measurement_server"):
            assert not hasattr(PriceSheriff, name), name
        for name in ("choose_k", "best_silhouette", "squared_distance"):
            assert not hasattr(repro.profiles.kmeans, name), name
        for name in ("attach_measurement_server", "detach_measurement_server",
                     "probe", "ops_panel"):
            assert not hasattr(AdminConsole, name), name
        assert not hasattr(RequestDistributor, "remove_server")
        assert not hasattr(repro.web.pricing, "ProductCountryJitterPricing")
        for name in ("ServerBusy", "ProbeFailed", "KillSwitchTripped"):
            assert not hasattr(repro.core.errors, name), name
        assert not hasattr(KillSwitch, "check")
        for cls in (SimTransport, SocketTransport):
            for name in ("unbind", "endpoints"):
                assert not hasattr(cls, name), (cls.__name__, name)
        assert not hasattr(repro.net.protocol, "frame_sizes")
        assert not hasattr(repro.analysis.stats, "roc_auc")
        for name in ("format_percent", "format_series"):
            assert not hasattr(repro.analysis.reports, name), name
        for cls, names in (
            (CookieJar, ("delete", "domains", "clear", "copy", "__len__",
                         "__contains__")),
            (BrowserHistory, ("entries", "visits_to", "clear", "__len__")),
            (Browser, ("fetch_raw", "is_logged_in")),
            (Whitelist, ("remove", "__len__", "__contains__")),
            (Population, ("users_in", "n_users", "countries")),
            (PeerOverlay, ("get", "is_online", "set_online", "unregister")),
            (MetricsRegistry, ("gauge",)),
            (NullRegistry, ("gauge", "get", "render_exposition")),
        ):
            for name in names:
                assert not hasattr(cls, name), (cls.__name__, name)
        assert CookieJar.__eq__ is object.__eq__

    def test_hubs_do_not_list_them(self):
        import repro.analysis
        import repro.core
        import repro.crypto
        import repro.obs
        import repro.ops
        import repro.profiles
        import repro.web

        gone = {
            repro.profiles: {"squared_distance", "choose_k", "best_silhouette"},
            repro.web: {"ProductCountryJitterPricing"},
            repro.core: {"ProbeFailed"},
            repro.ops: {"CallableProbe", "CallbackNotifier", "KillSwitchTripped"},
            repro.obs: {"Gauge"},
            repro.crypto: {"clear_dlog_cache", "clear_fastexp_cache"},
            repro.analysis: {"roc_auc", "format_percent"},
        }
        for hub, names in gone.items():
            assert not names & set(hub.__all__), hub.__name__

    def test_a_clustering_round_is_given_its_k(self):
        k = inspect.signature(PriceSheriff.run_doppelganger_clustering).parameters["k"]
        assert k.default is inspect.Parameter.empty


class TestWhatNothingReadsOrSets:
    """State the running system wrote and nothing read, and defaulted
    parameters no call set, are gone; the defaults became constants."""

    @pytest.fixture(scope="class")
    def sheriff(self):
        world = SheriffWorld.create(seed=1)
        sheriff = PriceSheriff(world, n_measurement_servers=1,
                               ipc_sites=[("ES", "Madrid", 1.0)])
        sheriff.install_addon(world.make_browser("ES", "Madrid"))
        yield sheriff
        sheriff.shutdown()

    def test_identifiers_absent_from_source(self):
        assert _source_offenders(re.compile(
            r"TrackerVisit|request_log|retries_total|failures_total"
            r"|state_fetch_retries|state_fetch_failures|jobs_processed"
            r"|ipc_fetches|ppc_ok|page_cache_hits|rate_drift|max_series_per_metric"
        )) == []

    def test_state_gone(self, sheriff):
        from repro.analysis.stats import ABTestVerdict
        from repro.core.measurement import MeasurementStats
        from repro.currency.detect import DetectedPrice
        from repro.experiments.registry import Scale
        from repro.extensions.contentdiff import ContentObservation
        from repro.net.p2p import PeerRecord
        from repro.storage.sharding import HashRing

        for cls, names in (
            (ABTestVerdict, {"min_ks_d", "forest_score"}),
            (MeasurementStats, {"ipc_fetches", "ppc_ok", "page_cache_hits"}),
            (DetectedPrice, {"original"}),
            (Scale, {"profile_users"}),
            (ContentObservation, {"vantage_id"}),
            (PeerRecord, {"online"}),
        ):
            assert not names & {f.name for f in dataclasses.fields(cls)}, cls.__name__
        addon = sheriff.addons[0]
        tracker = sheriff.world.ecosystem.get("doubleclick.net")
        circuit = sheriff.anonymity.build_circuit()
        for obj, names in (
            (tracker, ("visits",)),
            (sheriff.ipcs[0], ("retries_total", "failures_total", "max_retries", "backoff")),
            (addon.peer_handler, ("state_fetch_retries", "state_fetch_failures",
                                  "backoff_seconds", "max_state_retries", "backoff")),
            (sheriff.measurement_server("ms-0"), ("jobs_processed",)),
            (addon, ("serve_as_ppc",)),
            (circuit, ("_network",)),
            (HashRing(["a"]), ("replicas",)),
            (sheriff.telemetry.registry, ("max_series_per_metric",)),
        ):
            for name in names:
                assert not hasattr(obj, name), (type(obj).__name__, name)
        import repro.web.trackers

        assert not hasattr(repro.web.trackers, "TrackerVisit")

    def test_parameters_gone(self):
        from repro.analysis.report_writer import write_markdown_report
        from repro.analysis.stats import ab_test_verdict
        from repro.analysis.temporal import trend_for_product
        from repro.clients.crawler import SystematicCrawler
        from repro.clients.ipc import InfrastructureProxyClient
        from repro.clients.ppc import PeerProxyClient
        from repro.core.aggregator import Aggregator
        from repro.crypto.secure_kmeans import ProfileClient
        from repro.currency.detect import format_price
        from repro.currency.rates import ExchangeRateProvider
        from repro.experiments import fig8_clustering
        from repro.mesh.worker import MeasurementWorker
        from repro.net.anonymity import Circuit
        from repro.net.faults import FaultPlan
        from repro.net.sim import fetch_duration
        from repro.obs.metrics import Histogram, MetricsRegistry
        from repro.obs.slo import build_default_slos
        from repro.obs.trace import render_trace
        from repro.ops.health import DeadLetterProbe
        from repro.ops.supervisor import Supervisor
        from repro.profiles.doppelganger import DoppelgangerManager
        from repro.web.html import render
        from repro.web.pricing import PerCountryABTestPricing, RegionalPricing, VatInclusivePricing
        from repro.workloads.alexa import ContentWeb, build_alexa_ecommerce
        from repro.workloads.crawlstudy import CrawlStudy, temporal_study
        from repro.workloads.deployment import AdoptionSeries, adoption_series
        from repro.workloads.journey import run_slo_drill
        from repro.workloads.perfmodel import run_table1
        from repro.workloads.stores import build_named_stores

        for func, names in (
            (ExchangeRateProvider, ("drift",)),
            (ExchangeRateProvider.rate_per_eur, ("at_time",)),
            (ExchangeRateProvider.convert, ("at_time",)),
            (SheriffWorld.create, ("rate_drift",)),
            (Supervisor, ("killswitch",)),
            (FaultPlan, ("rng",)),
            (MeasurementServer, ("latency_model",)),
            (PriceSheriff.install_addon, ("peer_id",)),
            (PriceSheriff.run_doppelganger_clustering,
             ("initial_centroids", "quantization", "halt_threshold")),
            (Aggregator.run_clustering, ("halt_threshold",)),
            (render, ("indent",)),
            (CrawlStudy, ("seed",)),
            (CrawlStudy.crawl_domains, ("city",)),
            (CrawlStudy.alexa_sweep, ("country",)),
            (temporal_study, ("country",)),
            (DeadLetterProbe, ("max_delta",)),
            (InfrastructureProxyClient,
             ("max_retries", "backoff", "os_name", "browser_name")),
            (PeerProxyClient, ("max_state_retries", "backoff")),
            (SystematicCrawler, ("agent",)),
            (ProfileClient, ("client_id",)),
            (Circuit, ("network",)),
            (ShardedDatabase, ("replicas",)),
            (write_markdown_report, ("title",)),
            (ab_test_verdict, ("ks_p_threshold", "regression_alpha", "regression_r2_floor")),
            (trend_for_product, ("flat_epsilon",)),
            (format_price, ("grouping",)),
            (fig8_clustering.run_fig8b, ("m",)),
            (fig8_clustering.run_fig8c, ("repeats",)),
            (MeasurementWorker.serve_forever, ("announce",)),
            (fetch_duration, ("service_seconds",)),
            (Histogram, ("max_series",)),
            (Histogram.percentiles, ("ps",)),
            (MetricsRegistry, ("max_series_per_metric",)),
            (build_default_slos,
             ("queue_wait_threshold", "queue_wait_objective", "availability_objective")),
            (render_trace, ("width",)),
            (DoppelgangerManager, ("infra_country",)),
            (RegionalPricing, ("default",)),
            (PerCountryABTestPricing, ("default",)),
            (VatInclusivePricing, ("salt",)),
            (ContentWeb, ("zipf_s",)),
            (build_alexa_ecommerce, ("seed", "catalog_size")),
            (AdoptionSeries.spike_days, ("threshold_factor",)),
            (adoption_series, ("base_rate", "press_events", "decay_days",
                               "retention_days", "active_fraction")),
            (run_slo_drill, ("check_latency_threshold", "check_latency_objective")),
            (run_table1, ("seed",)),
            (build_named_stores, ("tracker_fraction",)),
        ):
            parameters = inspect.signature(func).parameters
            for name in names:
                assert name not in parameters, (func.__qualname__, name)
