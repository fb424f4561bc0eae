"""Monitoring panels (Fig. 7 and Fig. 16) rendered as text tables.

The real system exposes two real-time web interfaces: the Measurement
servers panel (status + pending jobs per server) and the peer-proxy
panel (peer ID, IP, country, region, city).  These renderers produce the
same tables for terminals, tests, and the examples.

Each panel renders from one source.  The servers, peers and faults
panels read the live component (the :class:`Coordinator`, for its
server list and pending jobs, a :class:`PeerOverlay`, a
:class:`FaultPlan`);
:class:`~repro.core.admin.AdminConsole` hands them the deployment's.
:func:`pipeline_panel` reads a
:class:`~repro.obs.metrics.MetricsRegistry` snapshot: throughput and
check-latency percentiles come from the engine's event instruments,
and cache hit rate and retry-budget burn from the sampled views of the
page cache's and the Coordinator's own counts.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from typing import Dict, List, Optional, Sequence, Union

from repro.core.coordinator import Coordinator
from repro.net.faults import FaultPlan
from repro.net.p2p import PeerOverlay
from repro.obs.metrics import MetricsRegistry, NullRegistry

__all__ = [
    "faults_panel",
    "ops_panel",
    "peers_panel",
    "pipeline_panel",
    "render_table",
    "servers_panel",
]

#: any source a metrics-backed panel accepts
Registryish = Union[MetricsRegistry, NullRegistry]


def render_table(rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> str:
    """Align a list of dict rows into a fixed-width text table."""
    widths = {c: len(c) for c in columns}
    for row in rows:
        for c in columns:
            widths[c] = max(widths[c], len(str(row.get(c, ""))))
    header = "  ".join(f"{c:<{widths[c]}}" for c in columns)
    sep = "-" * len(header)
    lines = [header, sep]
    for row in rows:
        lines.append("  ".join(f"{str(row.get(c, '')):<{widths[c]}}" for c in columns))
    return "\n".join(lines)


# -- Fig. 7: the Measurement-servers panel ------------------------------------

def servers_panel(coordinator: Coordinator) -> str:
    """The Fig. 7 'Available Sheriff servers and jobs' panel: the
    server list, with each server's pending jobs from the Coordinator."""
    rows = coordinator.distributor.monitoring_rows(coordinator.load())
    table = render_table(rows, columns=("Worker", "Port", "Status", "Jobs"))
    return "Available Sheriff servers and jobs.\n" + table


# -- Fig. 7 (robustness view): fault + recovery counters ----------------------

def faults_panel(
    plan: Optional[FaultPlan],
    recovery: Optional[Dict[str, object]] = None,
) -> str:
    """Retry/failover counters for the robustness view of the Fig. 7
    panel — the numbers an operator watches during a chaos drill.

    Pass the :class:`FaultPlan` itself (or ``None`` for a clean run):
    the per-kind fault counts are tallied from its **event log**, the
    same record the determinism tests replay, so the panel cannot
    drift from what was actually injected.  ``recovery`` carries the
    deployment's failover/retry counters (``PriceSheriff.fault_report``
    shape); a counter the event log already gives is not repeated.
    """
    rows: List[Dict[str, object]] = [{
        "Counter": "chaos_profile",
        "Value": plan.name if plan is not None else "none",
    }]
    tally: _TallyCounter = _TallyCounter()
    if plan is not None:
        tally.update(event.kind for event in plan.event_log())
    rows.append({"Counter": "faults_injected", "Value": sum(tally.values())})
    for kind in sorted(tally):
        rows.append({"Counter": f"faults_{kind}", "Value": tally[kind]})
    if recovery:
        derived = {r["Counter"] for r in rows}
        rows.extend(
            {"Counter": k, "Value": v}
            for k, v in recovery.items()
            if k not in derived
        )
    table = render_table(rows, columns=("Counter", "Value"))
    return "Fault injection and recovery counters.\n" + table


# -- the operations panel (self-healing layer) --------------------------------

def ops_panel(source) -> str:
    """The self-healing operations panel: one row per supervised
    component, plus the kill-switch and audit tallies.

    ``source`` is a :class:`repro.ops.supervisor.Supervisor` (anything
    with ``monitoring_rows()`` / ``status()`` works).
    """
    rows = source.monitoring_rows()
    table = render_table(
        rows, columns=("Component", "State", "Restarts", "Detail")
    )
    status = source.status()
    footer = (
        f"kill-switch: {status['killswitch']}  "
        f"restarts: {status['restarts']}  "
        f"audit events: {status['audit_events']}"
    )
    return "Supervised components and healing state.\n" + table + "\n" + footer


# -- Fig. 16: the peer-proxy panel --------------------------------------------

def peers_panel(overlay: PeerOverlay, self_peer_id: str = "") -> str:
    """The Fig. 16 peer-proxy monitoring panel."""
    rows: List[Dict[str, object]] = []
    for row in overlay.monitoring_rows():
        row = dict(row)
        row["Select"] = "SELF" if row["Peer ID"] == self_peer_id else ""
        rows.append(row)
    table = render_table(
        rows, columns=("Peer ID", "IP", "Country", "Region", "City", "Select")
    )
    return "Online peer proxies.\n" + table


# -- the pipeline panel (registry-only) ---------------------------------------

def _rate(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.1f}%" if whole else "n/a"


def _seconds(value: Optional[float]) -> str:
    return f"{value:.3f}s" if value is not None else "n/a"


def pipeline_panel(registry: Registryish) -> str:
    """Engine health at a glance, from a metrics snapshot alone.

    Completed checks, check-latency percentiles, page-cache hit rate,
    and the retry/backoff budget the recovery machinery has burned.
    """
    if not getattr(registry, "enabled", False):
        return "Pipeline health.\n(telemetry disabled — no metrics to render)"
    completed = registry.get("sheriff_engine_jobs_completed_total")
    latency = registry.get("sheriff_check_latency_seconds")
    hits = registry.get("sheriff_cache_hits_total")
    misses = registry.get("sheriff_cache_misses_total")
    retries = registry.get("sheriff_retry_budget_spent_total")
    backoff = registry.get("sheriff_backoff_seconds_total")

    done = completed.total if completed is not None else 0.0
    rows: List[Dict[str, object]] = [
        {"Metric": "checks_completed", "Value": int(done)},
    ]
    pcts = (
        latency.percentiles()
        if latency is not None
        else {"p50": None, "p95": None, "p99": None}
    )
    for name in ("p50", "p95", "p99"):
        rows.append({
            "Metric": f"check_latency_{name}", "Value": _seconds(pcts[name]),
        })
    hit = hits.total if hits is not None else 0.0
    miss = misses.total if misses is not None else 0.0
    rows.append({
        "Metric": "page_cache_hit_rate", "Value": _rate(hit, hit + miss),
    })
    rows.append({
        "Metric": "retry_budget_spent",
        "Value": int(retries.total) if retries is not None else 0,
    })
    rows.append({
        "Metric": "backoff_seconds_total",
        "Value": f"{backoff.total:.3f}" if backoff is not None else "0.000",
    })
    table = render_table(rows, columns=("Metric", "Value"))
    return "Pipeline health.\n" + table
