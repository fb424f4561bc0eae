"""Reach census: which modules and defs of ``src/repro`` does anything run?

Runs every row of :data:`repro.cli.VERBS` (with the cheap flags of
:data:`VERB_ARGS`; a verb not listed there runs with its defaults), every
``examples/*.py`` and the benchmark's smoke pass (``bench/run.py --smoke
--trace``, whose ``bench/worker.py`` children run the five workloads),
each in its own interpreter.  A ``sitecustomize`` on ``PYTHONPATH``
records every ``repro`` code object that starts running, in every
thread, and writes the record when the interpreter exits, or, in a
forked child (a fork-pool worker), when it leaves through ``os._exit``;
child processes inherit ``PYTHONPATH``, so the mesh's workers and the
benchmark's passes are followed too.

The gate: exit 1 when a run exits non-zero, when a module under
``src/repro`` or a def in one is reached by no run and is not on
:data:`ALLOW`, or when an ``ALLOW`` entry is reached (a stale entry),
names nothing or gives no reason.  A declaration (a def whose body is
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
from typing import Dict, Iterable, Iterator, List, Mapping, Set, Tuple

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


_PII_DELETE = _error("tests/core/test_progressive_and_pii.py::TestPiiAudit::"
                     "test_email_in_stored_text_found_and_deleted")
_MEMORY = _bench("storage MemoryBackend.insert/insert_many/lookup (the memory engine, "
                 "the equivalence oracle the check workloads run on)")
_SHARDED = _bench("storage ShardedDatabase.sp_record_request/sp_record_responses/"
                  "sp_responses_for_job (report_rw's 4-shard router)")
_DOM = _bench("web.html.parse (the DOM the legacy parse builds)")
_CRYPTO_ORACLE = ("tests/crypto/test_lockstep.py, through the naive oracle "
                  "tests/oracles/crypto_naive.py,")

#: what nothing runs on purpose: ``module.py`` (a whole module) or
#: ``module.py::Qualified.name`` (a def and what is nested in it) → why.
#: Every reason is one of five: a benchmark probe's surface, a caller
#: ROADMAP plans, an error or limit path a named test drives, a
#: reference tests compare against, or a shape property a named
#: ``benchmarks/`` test reads.
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


def runs() -> List[Tuple[str, List[str]]]:
    """(label, argv) of every verb, every example and the bench smoke."""
    from repro.cli import VERBS

    verbs = [
        (f"repro {verb.name}",
         [sys.executable, "-m", "repro", verb.name, *VERB_ARGS.get(verb.name, ())])
        for verb in VERBS
    ]
    examples = [
        (f"examples/{path.name}", [sys.executable, str(path)])
        for path in sorted((REPO / "examples").glob("*.py"))
    ]
    bench = [("bench/run.py --smoke --trace",
              [sys.executable, str(REPO / "bench" / "run.py"), "--smoke", "--trace"])]
    return verbs + examples + bench


def take_census(work: pathlib.Path) -> Set[Code]:
    """Run everything under the recorder; the union of what ran."""
    hook, records = work / "hook", work / "records"
    hook.mkdir()
    records.mkdir()
    (hook / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        root=str(PACKAGE) + os.sep, out=str(records),
    ))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(hook), str(PACKAGE.parent))))
    for label, argv in runs():
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


def modules() -> List[str]:
    """Every module under src/repro, as its path there."""
    return sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py"))


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


def _functions(tree: ast.AST, path: str,
               prefix: str = "") -> Iterator[Tuple[str, Code, bool]]:
    """(qualified name, record key, is a declaration) of every def in a
    module, class bodies walked through, lambdas and comprehensions skipped."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}{node.name}"
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield name, (path, first, node.name), _is_declaration(node)
            yield from _functions(node, path, f"{name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, path, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, path, prefix)


def defs() -> Dict[str, Code]:
    """``module.py::Qualified.name`` → record key of every def under
    src/repro that is not a declaration."""
    found: Dict[str, Code] = {}
    for module in modules():
        path = PACKAGE / module
        tree = ast.parse(path.read_text(), str(path))
        for name, key, declaration in _functions(tree, str(path)):
            if not declaration:
                found[f"{module}::{name}"] = key
    return found


def _covers(entry: str, name: str) -> bool:
    """Does the ALLOW entry cover ``name`` (a module or a def)?"""
    if "::" not in entry:
        return name == entry or name.startswith(f"{entry}::")
    return name == entry or name.startswith(f"{entry}.")


def gate(everything: Iterable[str], reached: Iterable[str],
         allow: Mapping[str, str]) -> List[str]:
    """The census's verdict, one line per failure (none: it passes).

    ``everything`` and ``reached`` hold modules (``module.py``) and defs
    (``module.py::Qualified.name``); a module counts as reached when any
    code in it ran."""
    everything, reached = set(everything), set(reached)
    problems = [f"{name}: reached by no verb, example, mesh worker or bench workload"
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


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-census-") as tmp:
        reached = take_census(pathlib.Path(tmp))
    all_modules = modules()
    reached_modules = {pathlib.Path(path).relative_to(PACKAGE).as_posix()
                       for path, _, _ in reached}
    all_defs = defs()
    reached_defs = {name for name, key in all_defs.items() if key in reached}
    problems = gate([*all_modules, *all_defs], reached_modules | reached_defs, ALLOW)

    print("## Reach census")
    print()
    print(f"{len(reached_modules & set(all_modules))} of {len(all_modules)} "
          f"modules and {len(reached_defs)} of {len(all_defs)} defs under "
          f"src/repro reached; {len(ALLOW)} ALLOW entries")
    for problem in problems:
        print(f"- FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
