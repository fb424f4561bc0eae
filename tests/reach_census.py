"""Reach census: which modules and defs of ``src/repro`` does anything
run, which state does anything read, which parameters does anything set?

Two static passes come first; they read files only, and a failure ends
the census before anything runs.  Over the five trees ``src/``,
``tests/``, ``bench/``, ``examples/`` and ``benchmarks/``:

* unread state — an attribute a method of a ``src/repro`` class stores
  on ``self``, or a dataclass or NamedTuple field, whose name no file
  reads.  Not a read: being the receiver of a statement-level
  ``.append`` / ``.extend`` / ``.add`` / ``.update`` / ``.setdefault`` /
  ``.insert``, being written into by a subscript store or ``+=``, being
  passed as a keyword argument.  A string constant equal to the name is
  a read (``getattr``, sampled views).  Key ``module.py::Class.attr``.
* unset parameters — a defaulted parameter of a ``src/repro`` def that
  no call passes, by keyword or by position; a call is matched by its
  callee's name (the class name, or ``super().__init__`` in a subclass,
  for an ``__init__``).  Key ``module.py::Qualified.name(param)``.

Matching by name can miss waste, but does not fail on what is used.

Then the census runs every row of :data:`repro.cli.VERBS` (with the cheap flags of
:data:`VERB_ARGS`; a verb not listed there runs with its defaults), every
``examples/*.py`` and the benchmark's smoke pass (``bench/run.py --smoke
--trace``, whose ``bench/worker.py`` children run the five workloads),
each in its own interpreter.  A ``sitecustomize`` on ``PYTHONPATH``
records every ``repro`` code object that starts running, in every
thread, and writes the record when the interpreter exits, or, in a
forked child (a fork-pool worker), when it leaves through ``os._exit``;
child processes inherit ``PYTHONPATH``, so the mesh's workers and the
benchmark's passes are followed too.

The gate: exit 1 when a static pass finds what :data:`ALLOW` does not
name, when a run exits non-zero, when a module under ``src/repro`` or a
def in one is reached by no run and is not on :data:`ALLOW`, or when an
``ALLOW`` entry is reached, read or set (a stale entry), names nothing
or gives no reason.  A declaration (a def whose body is
only a docstring, ``...``, ``pass`` or ``raise NotImplementedError``)
is not a def the gate counts.  An entry covers the defs nested in what
it names.

    PYTHONPATH=src python tests/reach_census.py
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"


def _bench(row: str) -> str:
    return (f"benchmark surface: the bench/tracing.py PATCH_TABLE row {row}, or "
            f"what stands behind it; it goes with ROADMAP item 13")


def _planned(caller: str) -> str:
    return f"planned caller: {caller}"


def _error(test: str) -> str:
    return f"error or limit path: {test} drives it"


def _reference(test: str) -> str:
    return f"reference: {test} compares against it"


def _shape(test: str) -> str:
    return f"shape property: {test} reads it"


def _setting(what: str) -> str:
    return f"deployment setting: {what}"


def _indirect(caller: str) -> str:
    return f"indirect call: {caller} passes it, through a callee the name match cannot see"


_PII_DELETE = _error("tests/core/test_progressive_and_pii.py::TestPiiAudit::"
                     "test_email_in_stored_text_found_and_deleted")
_MEMORY = _bench("storage MemoryBackend.insert/insert_many/lookup (the memory engine, "
                 "the equivalence oracle the check workloads run on)")
_SHARDED = _bench("storage ShardedDatabase.sp_record_request/sp_record_responses/"
                  "sp_responses_for_job (report_rw's 4-shard router)")
_DOM = _bench("web.html.parse (the DOM the legacy parse builds)")
_CRYPTO_ORACLE = ("tests/crypto/test_lockstep.py, through the naive oracle "
                  "tests/oracles/crypto_naive.py,")

#: what nothing runs, reads or sets on purpose → why.  A key is
#: ``module.py`` (a whole module), ``module.py::Qualified.name`` (a def
#: and what is nested in it, or a stored attribute) or
#: ``module.py::Qualified.name(param)`` (a defaulted parameter).  Every
#: reason is one of seven: a benchmark probe's surface, a caller ROADMAP
#: plans, an error or limit path a named test drives, a reference tests
#: compare against, a shape property a named ``benchmarks/`` test reads,
#: a deployment setting, or an indirect call the name match cannot see.
ALLOW: Dict[str, str] = {
    # -- a benchmark probe and what stands behind it
    "core/database.py::DatabaseServer.sp_responses_for_job":
        _bench("core.database DatabaseServer.sp_responses_for_job"),
    "core/database.py::DatabaseServer.lookup":
        _bench("core.database DatabaseServer.sp_responses_for_job (its index seek)"),
    "storage/backend.py::StorageBackend.insert_many":
        _bench("storage MemoryBackend.insert_many / SqliteBackend.insert_many "
               "(both resolve to this method)"),
    "storage/backend.py::StorageBackend.lookup_json": _MEMORY,
    "storage/backend.py::join_json_arrays": _SHARDED,
    "storage/memory.py::MemoryBackend._reindex": _MEMORY,
    "storage/memory.py::MemoryBackend.count": _MEMORY,
    "storage/memory.py::MemoryBackend.delete_rows": _MEMORY,
    "storage/memory.py::MemoryBackend.scan": _MEMORY,
    "storage/sharding.py::ShardedDatabase.backend": _SHARDED,
    "storage/sharding.py::ShardedDatabase.count": _SHARDED,
    "storage/sharding.py::ShardedDatabase.lookup": _SHARDED,
    "storage/sharding.py::ShardedDatabase.query_count": _SHARDED,
    "storage/sharding.py::ShardedDatabase.scan": _SHARDED,
    "storage/sharding.py::ShardedDatabase.sp_record_job": _SHARDED,
    "storage/sharding.py::ShardedDatabase.sp_responses_for_job":
        _bench("storage ShardedDatabase.sp_responses_for_job"),
    "web/html.py::parse": _bench("web.html.parse"),
    "web/html.py::tokenize": _DOM,
    "web/html.py::iter_elements": _DOM,
    "web/html.py::find_all": _DOM,
    "web/html.py::text_of": _DOM,
    "web/html.py::Element.classes": _DOM,
    "web/html.py::Element.has_class": _DOM,
    "web/html.py::Element.signature": _DOM,
    "web/html.py::Element.text": _DOM,
    # -- a caller ROADMAP plans
    "core/coordinator.py::Coordinator.failed_jobs":
        _planned("ROADMAP item 12's bounded ring of failed jobs"),
    "core/diffstorage.py::DiffStorage.restore":
        _planned("ROADMAP item 12 reads stored pages back"),
    "core/engine.py::PriceCheckEngine.drain":
        _planned("the supervisor's <server>/pool restart action (ROADMAP item 18)"),
    "net/events.py::EventLoop.run":
        _planned("PriceCheckEngine.drain runs the loop dry with it (ROADMAP item 18)"),
    "ops/audit.py::AuditTrail.export_jsonl":
        _planned("ROADMAP item 10 ships the audit trail off-process"),
    # -- an error or limit path
    "core/errors.py::AdmissionDenied.__init__": _error(
        "tests/core/test_sheriff_e2e.py::TestWhitelisting::"
        "test_non_whitelisted_domain_rejected"),
    "core/errors.py::QueueSaturated.__init__": _error(
        "tests/core/test_jobqueue.py::TestLoadShedding::"
        "test_shed_beyond_depth_with_escalating_retry_after"),
    "core/errors.py::RetryExhausted.__init__": _error(
        "tests/core/test_failover.py::TestCoordinatorFailover::test_retry_budget_exhausts"),
    "net/transport.py::RemoteCallError.__init__": _error(
        "tests/net/test_transport_contract.py::TestErrorTaxonomy::"
        "test_remote_exception_maps_to_remote_call_error"),
    "net/transport.py::_raise_error_response": _error(
        "tests/net/test_transport_contract.py::TestErrorTaxonomy::"
        "test_remote_exception_maps_to_remote_call_error"),
    "net/transport.py::_TransportTelemetry.failed": _error(
        "tests/net/test_socket_hostile.py::TestHostileServer::"
        "test_unusable_reply_is_a_network_error"),
    "net/transport.py::_TransportTelemetry.reconnected": _error(
        "tests/net/test_socket_hostile.py::TestIdleConnections::"
        "test_pooled_client_that_idled_past_it_reconnects_once"),
    "mesh/launch.py::_WorkerProc.stderr_tail": _error(
        "tests/mesh/test_mesh.py::TestReadyDeadline::test_a_chatty_worker_is_drained"),
    "obs/trace.py::NullTracer.spans_for": _error(
        "a journey asked of a deployment with tracing off: "
        "tests/core/test_jobqueue.py::TestDeadLetters::"
        "test_budget_exhaustion_dead_letters_the_job"),
    "net/p2p.py::PeerOverlay._index_country": _error(
        "a known peer re-registering from another country: "
        "tests/net/test_overlay_index.py::test_country_index_equals_a_scan"),
    "obs/trace.py::Tracer._evict": _error(
        "tests/obs/test_trace_eviction.py::TestWholeTraceEviction::"
        "test_evicts_complete_traces_in_first_seen_order"),
    "ops/supervisor.py::Supervisor._escalate": _error(
        "tests/ops/test_chaos_healing.py::TestFlapHealing::"
        "test_persistent_flapping_exhausts_budget_and_trips_killswitch"),
    "core/database.py::DatabaseServer.delete_rows": _PII_DELETE,
    "storage/sqlite.py::SqliteBackend.delete_rows": _PII_DELETE,
    "storage/sqlite.py::SqliteBackend._add_index_column": _error(
        "tests/storage/test_backends.py::TestSqliteEngine::"
        "test_a_file_from_before_the_job_index_gets_it_on_opening"),
    "storage/sqlite.py::_jsonable": _error(
        "a row holding a tuple: tests/storage/test_backends.py::TestBackendContract::"
        "test_tuple_round_trip"),
    "storage/sqlite.py::_from_jsonable": _error(
        "a row holding a tuple: tests/storage/test_backends.py::TestBackendContract::"
        "test_tuple_round_trip"),
    "crypto/fastexp.py::fastexp_cache_info": _error(
        "the comb-table cache's LRU cap, read by the sheriff_crypto_fastexp_tables "
        "gauge when scraped: tests/crypto/test_fastexp.py::TestTableCache::"
        "test_lru_cap_evicts_oldest"),
    "crypto/fastexp.py::FixedBaseTable.n_windows": _error(
        "the comb-table cache's LRU cap, read by the sheriff_crypto_fastexp_tables "
        "gauge when scraped: tests/crypto/test_fastexp.py::TestTableCache::"
        "test_lru_cap_evicts_oldest"),
    "crypto/dlog.py::dlog_cache_info": _error(
        "the BSGS table cache's LRU cap, read by the sheriff_crypto_dlog_cache gauge "
        "when scraped: tests/crypto/test_dlog.py::TestCache::test_lru_cap_evicts_oldest"),
    # -- a reference tests compare against
    "core/tagspath.py::_lcs_length": _reference(
        "tests/core/test_tagspath.py, through the legacy Tags-Path similarity of "
        "tests/oracles/tagspath_legacy.py,"),
    "crypto/elgamal.py::VectorElGamal.decrypt": _reference(
        "tests/crypto/test_elgamal.py (decrypt after encrypt)"),
    "crypto/elgamal.py::VectorElGamal.decrypt_component": _reference(_CRYPTO_ORACLE),
    "crypto/elgamal.py::VectorElGamal.add": _reference(
        "tests/crypto/test_lockstep.py::TestSchemeLockstep::"
        "test_rerandomize_equals_add_of_mask_encryption (the homomorphic sum the "
        "batched masks must equal)"),
    "crypto/fe.py::InnerProductFE.eval_dot_product": _reference(
        "tests/crypto/test_fe.py (the scheme's inner product)"),
    "crypto/fe.py::InnerProductFE.eval_element": _reference(_CRYPTO_ORACLE),
    "crypto/fe.py::InnerProductFE.eval_elements": _reference(
        "tests/crypto/test_lockstep.py"),
    "crypto/group.py::SchnorrGroup.div": _reference(_CRYPTO_ORACLE),
    "crypto/group.py::SchnorrGroup.exp": _reference(_CRYPTO_ORACLE),
    "crypto/group.py::SchnorrGroup.gexp": _reference(
        "tests/crypto/test_dlog.py::TestDiscreteLog (plain g^x, the values the "
        "baby-step giant-step search must invert)"),
    "crypto/group.py::SchnorrGroup.generate": _reference(
        "tests/crypto/test_group.py::TestGeneration (a group generated as the pinned "
        "ones were)"),
    "net/geo.py::GeoDatabase.lookup": _reference(
        "tests/net/test_geo.py::TestIpAllocation::test_roundtrip (the allocated "
        "addresses map back to their city)"),
    "crypto/group.py::is_probable_prime": _reference(
        "tests/crypto/test_group.py (the pinned groups' primes)"),
    # -- a shape property a benchmarks/ test reads
    "experiments/ablations.py::DispatchAblationResult.improvement":
        _shape("benchmarks/test_ablations.py"),
    "experiments/ablations.py::DoppelgangerAblationResult.pollution_reduction":
        _shape("benchmarks/test_ablations.py"),
    "experiments/ablations.py::SecureKMeansAblationResult.overhead":
        _shape("benchmarks/test_ablations.py"),
    "experiments/fig11_crawl.py::Fig11Result.max_spread":
        _shape("benchmarks/test_fig11_crawl_domains.py"),
    "experiments/fig12_country_cases.py::Fig12Result.diffs":
        _shape("benchmarks/test_fig12_country_cases.py"),
    "experiments/fig12_country_cases.py::Fig12Result.max_diff":
        _shape("benchmarks/test_fig12_country_cases.py"),
    "experiments/fig13_peer_bias.py::Fig13Result.biased_peers":
        _shape("benchmarks/test_fig13_peer_bias.py"),
    "experiments/fig13_peer_bias.py::Fig13Result.max_diff":
        _shape("benchmarks/test_fig13_peer_bias.py"),
    "experiments/fig14_15_temporal.py::TemporalFigureResult.directions":
        _shape("benchmarks/test_fig14_jcpenney_temporal.py"),
    "experiments/fig2_result_page.py::Fig2Result.currencies_observed":
        _shape("benchmarks/test_fig2_result_page.py"),
    "experiments/fig8_clustering.py::Fig8bResult.knee_k":
        _shape("benchmarks/test_fig8b_silhouette_k.py"),
    "experiments/fig8_clustering.py::Fig8cResult.seconds_for":
        _shape("benchmarks/test_fig8c_secure_kmeans.py"),
    "experiments/fig8_clustering.py::Fig8cResult.speedup":
        _shape("benchmarks/test_fig8c_secure_kmeans.py"),
    "experiments/sec75_ab_stats.py::Sec75Result.all_ab_testing":
        _shape("benchmarks/test_sec75_ab_stats.py"),
    "experiments/table4_country_rank.py::Table4Result.overlap":
        _shape("benchmarks/test_table4_country_rank.py"),
    "workloads/deployment.py::AdoptionSeries.spike_days":
        _shape("benchmarks/test_fig5_adoption.py"),
    # -- a defaulted parameter no call sets
    "core/database.py::DatabaseClient.__init__(timeout)":
        _setting("how long a Measurement server waits on the Database server"),
    "mesh/launch.py::MeshLauncher.__init__(call_timeout)":
        _setting("the mesh's per-call deadline"),
    "net/socket_transport.py::SocketTransport.drain(timeout)":
        _setting("how long a shutdown waits for in-flight calls"),
    "storage/backend.py::make_backend(path)":
        _planned("ROADMAP item 20 runs a deployment on a sqlite file"),
    "obs/metrics.py::Histogram.__init__(help)":
        _indirect("MetricsRegistry._declare, through cls(...),"),
}

#: cheap arguments per verb; the output files land in the run's directory
VERB_ARGS: Dict[str, Tuple[str, ...]] = {
    "reproduce": ("all", "--scale", "test", "--out", "report.md"),
    "watch": ("--days", "2"),
    "chaos": ("--profile", "lossy", "--seed", "3", "--requests", "24"),
    "supervise": ("--requests", "24", "--users", "12"),
    "mesh": ("--servers", "2", "--checks", "8"),
    "metrics": ("--requests", "24", "--out", "metrics.prom"),
    "trace": ("--requests", "24", "--out", "spans.jsonl"),
    "journey": ("--out", "journey.json"),
    "slo": ("--out", "slo.json"),
}

#: a record: (absolute file, first line, code name)
Code = Tuple[str, int, str]

SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_seen = set()


def _record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith({root!r}):
            _seen.add((code.co_filename, code.co_firstlineno, code.co_name))


def _dump():
    sys.setprofile(None)
    path = os.path.join({out!r}, f"{{os.getpid()}}.reach")
    with open(path, "w") as fh:
        fh.writelines(f"{{f}}\\t{{line}}\\t{{name}}\\n" for f, line, name in _seen)


def _in_child():
    # a forked child leaves through os._exit, which runs no atexit hook
    leave = os._exit

    def _exit(status):
        _dump()
        leave(status)

    os._exit = _exit


atexit.register(_dump)
os.register_at_fork(after_in_child=_in_child)
sys.setprofile(_record)
threading.setprofile(_record)
'''


def runs(repo: pathlib.Path = REPO) -> List[Tuple[str, List[str]]]:
    """(label, argv) of every verb, every example and the bench smoke."""
    from repro.cli import VERBS

    verbs = [
        (f"repro {verb.name}",
         [sys.executable, "-m", "repro", verb.name, *VERB_ARGS.get(verb.name, ())])
        for verb in VERBS
    ]
    examples = [
        (f"examples/{path.name}", [sys.executable, str(path)])
        for path in sorted((repo / "examples").glob("*.py"))
    ]
    bench = [("bench/run.py --smoke --trace",
              [sys.executable, str(repo / "bench" / "run.py"), "--smoke", "--trace"])]
    return verbs + examples + bench


def take_census(work: pathlib.Path, repo: pathlib.Path = REPO) -> Set[Code]:
    """Run everything under the recorder; the union of what ran."""
    package = repo / "src" / "repro"
    hook, records = work / "hook", work / "records"
    hook.mkdir()
    records.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        root=str(package) + os.sep, out=str(records),
    ))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(hook), str(package.parent))))
    for label, argv in runs(repo):
        cwd = work / label.replace("/", "_").replace(" ", "_")
        cwd.mkdir()
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=600)
        print(f"  {label:<34} exit {proc.returncode}  "
              f"{time.perf_counter() - start:5.1f} s", file=sys.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{label} failed (exit {proc.returncode}):\n"
                             f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return read_records(records)


def read_records(records: pathlib.Path) -> Set[Code]:
    reached: Set[Code] = set()
    for record in records.iterdir():
        for line in record.read_text().splitlines():
            path, first, name = line.split("\t")
            reached.add((path, int(first), name))
    return reached


def modules(package: pathlib.Path = PACKAGE) -> List[str]:
    """Every module under src/repro, as its path there."""
    return sorted(p.relative_to(package).as_posix() for p in package.rglob("*.py"))


def _is_declaration(node: ast.AST) -> bool:
    """A body of only a docstring, ``...``, ``pass`` or ``raise NotImplementedError``."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def _def_nodes(tree: ast.AST, prefix: str = "", owner: Optional[ast.ClassDef] = None,
               ) -> Iterator[Tuple[str, ast.FunctionDef, Optional[ast.ClassDef]]]:
    """(qualified name, node, the class it is a method of) of every def in
    a module, class bodies walked through, lambdas and comprehensions skipped."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}{node.name}"
            yield name, node, owner
            yield from _def_nodes(node, f"{name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _def_nodes(node, f"{prefix}{node.name}.", node)
        else:
            yield from _def_nodes(node, prefix, owner)


def _functions(tree: ast.AST, path: str) -> Iterator[Tuple[str, Code, bool]]:
    """(qualified name, record key, is a declaration) of every def in a module."""
    for name, node, _ in _def_nodes(tree):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        yield name, (path, first, node.name), _is_declaration(node)


def defs(package: pathlib.Path = PACKAGE) -> Dict[str, Code]:
    """``module.py::Qualified.name`` → record key of every def under
    src/repro that is not a declaration."""
    found: Dict[str, Code] = {}
    for module in modules(package):
        path = package / module
        tree = ast.parse(path.read_text(), str(path))
        for name, key, declaration in _functions(tree, str(path)):
            if not declaration:
                found[f"{module}::{name}"] = key
    return found


# -- the static passes: state nothing reads, parameters nothing sets

#: the trees whose files count as readers of state and callers of defs
TREES = ("src", "tests", "bench", "examples", "benchmarks")
#: a statement-level call of one of these on an attribute does not read it
MUTATORS = frozenset({"append", "extend", "add", "update", "setdefault", "insert"})
UNREAD = "read by no file in src/, tests/, bench/, examples/ or benchmarks/"
UNSET = "set by no call in src/, tests/, bench/, examples/ or benchmarks/"

#: a defaulted parameter: the names a call of its def goes by, its
#: position among the arguments a call passes (None: keyword-only), its name
Param = Tuple[FrozenSet[str], Optional[int], str]


def parse_trees(repo: pathlib.Path) -> List[ast.AST]:
    """Every Python file of the five trees, parsed."""
    return [ast.parse(path.read_text(), str(path))
            for tree in TREES for path in sorted((repo / tree).rglob("*.py"))]


def _classes(tree: ast.AST, prefix: str = "") -> Iterator[Tuple[str, ast.ClassDef]]:
    """(qualified name, node) of every class, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield f"{prefix}{node.name}", node
            yield from _classes(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _classes(node, f"{prefix}{node.name}.<locals>.")
        else:
            yield from _classes(node, prefix)


def _name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _name(node.func)
    return None


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple: its annotated names are fields."""
    return (any(_name(d) == "dataclass" for d in node.decorator_list)
            or any(_name(b) == "NamedTuple" for b in node.bases))


def _methods(node: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    return (n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))


def stored_state(sources: Mapping[str, ast.AST]) -> Dict[str, str]:
    """``module.py::Class.attr`` → ``attr`` for every attribute a method
    stores on its ``self`` and every dataclass or NamedTuple field."""
    found: Dict[str, str] = {}
    for module, tree in sources.items():
        for qualname, cls in _classes(tree):
            if _is_record(cls):
                for stmt in cls.body:
                    if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                            and "ClassVar" not in ast.unparse(stmt.annotation)):
                        found[f"{module}::{qualname}.{stmt.target.id}"] = stmt.target.id
            for method in _methods(cls):
                if not method.args.args:
                    continue
                me = method.args.args[0].arg
                for node in ast.walk(method):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name) and node.value.id == me):
                        found[f"{module}::{qualname}.{node.attr}"] = node.attr
    return found


def _written_into(node: ast.Subscript) -> ast.AST:
    """What a subscript store writes into, through nested subscripts."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def read_names(trees: Iterable[ast.AST]) -> Set[str]:
    """Every attribute name the trees load, and every string constant.

    Not a read: the receiver of a statement-level ``.append`` /
    ``.extend`` / ``.add`` / ``.update`` / ``.setdefault`` / ``.insert``,
    an attribute a subscript store or ``+=`` writes into, a keyword
    argument, and the names a ``__slots__`` lists."""
    names: Set[str] = set()
    for tree in trees:
        skip: Set[int] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr in MUTATORS
                    and isinstance(node.value.func.value, ast.Attribute)):
                skip.add(id(node.value.func.value))
            elif (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                skip.add(id(_written_into(node)))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
                skip.update(id(c) for c in ast.walk(node.value))
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _callees(cls: ast.ClassDef, children: Mapping[str, Set[str]],
             inits: Set[str]) -> Set[str]:
    """The names ``cls.__init__`` is called by: the class and each
    subclass that inherits the ``__init__``."""
    names, todo = {cls.name}, [cls.name]
    while todo:
        for child in children.get(todo.pop(), ()):
            if child not in inits and child not in names:
                names.add(child)
                todo.append(child)
    return names


def defaulted_params(sources: Mapping[str, ast.AST]) -> Dict[str, Param]:
    """``module.py::Qualified.name(param)`` → :data:`Param` of every
    parameter with a default of every def in ``sources``."""
    classes = [cls for tree in sources.values() for _, cls in _classes(tree)]
    children: Dict[str, Set[str]] = {}
    for cls in classes:
        for base in cls.bases:
            children.setdefault(_name(base) or "", set()).add(cls.name)
    inits = {cls.name for cls in classes if any(m.name == "__init__" for m in _methods(cls))}
    found: Dict[str, Param] = {}
    for module, tree in sources.items():
        for qualname, node, cls in _def_nodes(tree):
            if cls is not None and node.name == "__init__":
                callees = frozenset(_callees(cls, children, inits))
            else:
                callees = frozenset({node.name})
            bound = cls is not None and not any(
                _name(d) == "staticmethod" for d in node.decorator_list)
            positional = node.args.posonlyargs + node.args.args
            for index in range(len(positional) - len(node.args.defaults), len(positional)):
                arg = positional[index].arg
                found[f"{module}::{qualname}({arg})"] = (callees, index - bound, arg)
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    found[f"{module}::{qualname}({arg.arg})"] = (callees, None, arg.arg)
    return found


def _calls(tree: ast.AST, bases: Tuple[str, ...] = ()) -> Iterator[Tuple[ast.Call, List[str]]]:
    """Every call and the names it goes by: its callee's name, or for
    ``super().__init__`` the enclosing class's bases."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _calls(node, tuple(filter(None, map(_name, node.bases))))
            continue
        if isinstance(node, ast.Call) and _name(node.func) is not None:
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                    and isinstance(func.value, ast.Call) and _name(func.value) == "super"):
                yield node, list(bases)
            else:
                yield node, [_name(func)]
        yield from _calls(node, bases)


def passed_params(params: Mapping[str, Param], trees: Iterable[ast.AST]) -> Set[str]:
    """The keys of ``params`` some call in the trees passes a value to,
    matched by the callee's name, by keyword or by position (a ``*``
    argument passes every position, a ``**`` one every name)."""
    shapes: Dict[str, List[Tuple[int, bool, Set[str], bool]]] = {}
    for tree in trees:
        for node, names in _calls(tree):
            for name in names:
                shapes.setdefault(name, []).append((
                    sum(not isinstance(a, ast.Starred) for a in node.args),
                    any(isinstance(a, ast.Starred) for a in node.args),
                    {k.arg for k in node.keywords if k.arg is not None},
                    any(k.arg is None for k in node.keywords),
                ))
    passed: Set[str] = set()
    for key, (callees, position, name) in params.items():
        for callee in callees:
            if any(name in keywords or spread
                   or (position is not None and (star or count > position))
                   for count, star, keywords, spread in shapes.get(callee, ())):
                passed.add(key)
                break
    return passed


def static_problems(repo: pathlib.Path, allow: Mapping[str, str]) -> Tuple[str, List[str]]:
    """The two static passes over ``repo``: a one-line summary, and one
    line per stored attribute no file reads, per defaulted parameter no
    call sets, and per ``ALLOW`` entry that names neither them nor a
    module or def (the census runs judge those)."""
    package = repo / "src" / "repro"
    sources = {module: ast.parse((package / module).read_text(), str(package / module))
               for module in modules(package)}
    trees = parse_trees(repo)
    state, params, names = stored_state(sources), defaulted_params(sources), read_names(trees)
    read = {key for key, attr in state.items() if attr in names}
    passed = passed_params(params, trees)
    known = set(sources) | set(defs(package))
    mine = {entry: why for entry, why in allow.items() if entry not in known}
    problems = (
        gate(state, read, {e: w for e, w in mine.items() if "(" not in e}, UNREAD)
        + gate(params, passed, {e: w for e, w in mine.items() if "(" in e}, UNSET)
    )
    summary = (f"{len(read)} of {len(state)} stored attributes read and "
               f"{len(passed)} of {len(params)} defaulted parameters set; "
               f"{len(mine)} ALLOW entries")
    return summary, problems


def _covers(entry: str, name: str) -> bool:
    """Does the ALLOW entry cover ``name`` (a module or a def)?"""
    if "::" not in entry:
        return name == entry or name.startswith(f"{entry}::")
    return name == entry or name.startswith(f"{entry}.")


def gate(everything: Iterable[str], reached: Iterable[str], allow: Mapping[str, str],
         unreached: str = "reached by no verb, example, mesh worker or bench workload",
         ) -> List[str]:
    """The census's verdict, one line per failure (none: it passes).

    ``everything`` and ``reached`` hold modules (``module.py``) and defs
    (``module.py::Qualified.name``); a module counts as reached when any
    code in it ran."""
    everything, reached = set(everything), set(reached)
    problems = [f"{name}: {unreached}"
                for name in sorted(everything - reached)
                if not any(_covers(entry, name) for entry in allow)]
    for entry, reason in sorted(allow.items()):
        if not reason.strip():
            problems.append(f"{entry}: ALLOW entry gives no reason")
        if entry not in everything:
            problems.append(f"{entry}: ALLOW names nothing (stale entry)")
        elif entry in reached:
            problems.append(f"{entry}: ALLOW entry is reached (stale entry)")
    return problems


def main(repo: pathlib.Path = REPO, allow: Mapping[str, str] = ALLOW) -> int:
    print("## Reach census")
    print()
    # the static passes read files only: they run first and fail fast
    summary, problems = static_problems(repo, allow)
    print(summary)
    if not problems:
        package = repo / "src" / "repro"
        with tempfile.TemporaryDirectory(prefix="reach-census-") as tmp:
            reached = take_census(pathlib.Path(tmp), repo)
        all_modules = modules(package)
        reached_modules = {pathlib.Path(path).relative_to(package).as_posix()
                           for path, _, _ in reached}
        all_defs = defs(package)
        reached_defs = {name for name, key in all_defs.items() if key in reached}
        everything = [*all_modules, *all_defs]
        problems = gate(everything, reached_modules | reached_defs,
                        {e: w for e, w in allow.items() if e in set(everything)})
        print(f"{len(reached_modules & set(all_modules))} of {len(all_modules)} "
              f"modules and {len(reached_defs)} of {len(all_defs)} defs under "
              f"src/repro reached; {len(allow)} ALLOW entries in all")
    for problem in problems:
        print(f"- FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
