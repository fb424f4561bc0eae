"""The metric families a telemetry-on deployment exposes.

``repro metrics --requests 24`` (the lossy 24-request telemetry drill)
exposes exactly the ``# TYPE`` families below.  A family that appears
or vanishes here is a change to what an operator's dashboards can read,
so it is made on purpose: CI's perf-smoke job compares the
``BENCH_metrics.prom`` it writes against :data:`FAMILIES`, importing
this list and :func:`families` rather than keeping a second copy.
"""

from typing import List, Tuple

#: ``(name, kind)`` of every ``# TYPE`` line of the drill, sorted
FAMILIES: Tuple[Tuple[str, str], ...] = (
    ("sheriff_backoff_seconds_total", "counter"),
    ("sheriff_cache_hits_total", "counter"),
    ("sheriff_cache_misses_total", "counter"),
    ("sheriff_check_latency_seconds", "histogram"),
    ("sheriff_coordinator_recovery_total", "counter"),
    ("sheriff_db_batch_rows", "histogram"),
    ("sheriff_db_index_hits_total", "counter"),
    ("sheriff_db_queries_total", "counter"),
    ("sheriff_dispatch_jobs_total", "counter"),
    ("sheriff_dispatch_offline_events_total", "counter"),
    ("sheriff_engine_clock_seconds", "gauge"),
    ("sheriff_engine_jobs_completed_total", "counter"),
    ("sheriff_engine_jobs_submitted_total", "counter"),
    ("sheriff_engine_queue_depth", "gauge"),
    ("sheriff_engine_workers_busy", "gauge"),
    ("sheriff_extract_candidates_pruned_total", "counter"),
    ("sheriff_extract_lcs_cells_total", "counter"),
    ("sheriff_extract_memo_hits_total", "counter"),
    ("sheriff_extract_pages_parsed_total", "counter"),
    ("sheriff_faults_injected_total", "counter"),
    ("sheriff_job_turnaround_seconds", "histogram"),
    ("sheriff_peer_churn_total", "counter"),
    ("sheriff_peer_info", "gauge"),
    ("sheriff_peers_online", "gauge"),
    ("sheriff_requests_rejected_total", "counter"),
    ("sheriff_retry_budget_spent_total", "counter"),
    ("sheriff_server_online", "gauge"),
    ("sheriff_server_pending_jobs", "gauge"),
    ("sheriff_transport_bytes_total", "counter"),
    ("sheriff_transport_call_seconds", "histogram"),
    ("sheriff_transport_errors_total", "counter"),
    ("sheriff_transport_frames_total", "counter"),
    ("sheriff_transport_reconnects_total", "counter"),
)


def families(exposition: str) -> List[Tuple[str, str]]:
    """``(name, kind)`` of each ``# TYPE`` line of a text exposition."""
    return [
        (name, kind)
        for _, _, name, kind in (
            line.split() for line in exposition.splitlines()
            if line.startswith("# TYPE ")
        )
    ]


def test_the_metrics_drill_exposes_exactly_these_families(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "metrics.prom"
    assert main(["metrics", "--requests", "24", "--out", str(out)]) == 0
    assert families(out.read_text()) == list(FAMILIES)
    assert len(FAMILIES) == 33
