"""Scale benchmark: checks/sec as the Measurement-server fleet grows.

The Table-1 question asked horizontally: with the queued measurement
tier (:mod:`repro.core.jobqueue`) in front of N Measurement servers,
how does sustained price-check throughput scale with N?  Every level
replays the *same* seeded workload — same stores, same product roster,
same submission order — against a fleet of growing size, so the only
variable is how many per-server worker pools the queue tier can spread
a wave of concurrent checks over.

Two sections in the report:

* **measured** — the simulated-timeline sweep over ``server_counts``
  (1 → 8 by default).  Elapsed time is the engine makespan of the whole
  run; ``checks_per_sec`` at 8 servers over 1 server is the scaling
  factor the CI gate pins (≥ 3x).
* **projection** — a seeded arrival-process simulation from 1k to 1M
  active users: daily check arrivals (a base rate plus an evening
  burst) offered to a FIFO queue with deterministic service at the
  measured top-fleet capacity, reporting admitted/shed counts, p95
  queueing wait, and utilization per population level.

``repro scalebench`` writes the report to ``BENCH_scale.json``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.config import knob
from repro.net.events import SECONDS_PER_DAY
from repro.obs import Telemetry
from repro.workloads.cell import CellConfig, build_cell

__all__ = ["ScaleBenchConfig", "run_scalebench"]


@dataclass
class ScaleBenchConfig(CellConfig):
    """Knobs of one scaling-sweep run."""

    job_queue: bool = True
    #: Measurement-server fleet sizes to sweep (same workload each)
    server_counts: Tuple[int, ...] = knob((1, 2, 4, 8), ge=1, min_len=1)
    #: price checks executed per fleet size
    total_checks: int = knob(64, ge=1)
    #: concurrent submitters per wave (waves of this many checks are
    #: submitted together, then collected together)
    n_users: int = knob(16, ge=1)
    #: population levels of the 1k → 1M projection sweep
    users_levels: Tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000)
    #: offered load per active user (the deployment saw >5700 checks
    #: from 1265 users over ~390 days ≈ 0.012 checks/user/day)
    checks_per_user_per_day: float = 0.012
    #: fraction of a day's checks concentrated in the evening burst
    burst_fraction: float = 0.4
    burst_hours: Tuple[int, int] = (19, 22)

    @classmethod
    def smoke_scale(cls) -> "ScaleBenchConfig":
        """A reduced instance for CI and unit tests (still sweeps 1→8
        servers, since the scaling gate compares the endpoints)."""
        return cls(
            server_counts=(1, 2, 8),
            total_checks=32,
            n_users=16,
            ipc_sites=DEFAULT_IPC_SITES[:10],
            n_stores=4,
            users_levels=(1_000, 100_000, 1_000_000),
        )


def _run_level(config: ScaleBenchConfig, n_servers: int) -> Dict[str, object]:
    """Run the full workload against one fleet size.

    The database is sharded to match the fleet (one shard per server),
    so result collection exercises the scatter-gather read path the
    sharded deployment actually runs.
    """
    _, sheriff, urls, addons = build_cell(
        dataclasses.replace(
            config, n_measurement_servers=n_servers, db_shards=n_servers
        ),
        config.n_users,
        telemetry=Telemetry(metrics_only=True),
    )
    completed = 0
    rows_total = 0
    job_ids: List[str] = []
    start = sheriff.engine.now
    issued = 0
    while issued < config.total_checks:
        wave_size = min(config.n_users, config.total_checks - issued)
        wave = []
        for u in range(wave_size):
            addon = addons[u]
            url = urls[(issued + u) % len(urls)]
            wave.append((addon, addon.submit_price_check(url)))
        for addon, pending in wave:
            job_ids.append(pending.handle.job_id)
            result = addon.collect(pending)
            rows_total += len(result.rows)
            completed += 1
        issued += wave_size
    elapsed = max(sheriff.engine.now - start, 1e-9)
    # Scatter-gather read-back of every job's persisted rows through the
    # JobAPI façade — one indexed single-shard seek per job.
    gathered = sheriff.jobs.gather(job_ids)
    queue = sheriff.job_queue.stats() if sheriff.job_queue else {}
    return {
        "servers": n_servers,
        "db_shards": n_servers,
        "checks": completed,
        "rows": rows_total,
        "rows_gathered": sum(len(rows) for rows in gathered.values()),
        "elapsed_s": round(elapsed, 3),
        "checks_per_sec": round(completed / elapsed, 4),
        "queue": queue,
        "latency_breakdown": _latency_breakdown(sheriff),
        "peak_workers": max(
            (p.peak_busy for p in sheriff.engine._pools.values()), default=0
        ),
    }


def _latency_breakdown(sheriff) -> Dict[str, object]:
    """Queue-wait vs service-time percentiles from the run's metrics.

    Splits where each check's wall time went: ``queue_wait_s`` is the
    admission-to-dispatch wait in the queued tier
    (``sheriff_queue_wait_seconds``), ``service_time_s`` is the
    measurement itself (``sheriff_check_latency_seconds``).  At small
    fleets the wait dominates; the sweep shows it collapsing as servers
    are added while service time stays flat — the queueing-theory
    signature Table 1 predicts.
    """
    registry = sheriff.telemetry.registry
    breakdown: Dict[str, object] = {}
    for key, metric_name in (
        ("queue_wait_s", "sheriff_queue_wait_seconds"),
        ("service_time_s", "sheriff_check_latency_seconds"),
    ):
        histogram = registry.get(metric_name)
        if histogram is None or histogram.total_count() == 0:
            breakdown[key] = None
            continue
        pcts = histogram.percentiles((50.0, 90.0, 99.0))
        breakdown[key] = {
            "count": histogram.total_count(),
            **{
                name: (None if value is None else round(value, 4))
                for name, value in pcts.items()
            },
        }
    return breakdown


def _simulate_population(
    config: ScaleBenchConfig, users: int, capacity_cps: float
) -> Dict[str, object]:
    """One projected day at a population level, against measured capacity.

    Seeded arrival process: each check lands uniformly in the day,
    except a ``burst_fraction`` share concentrated in the evening
    window.  Offered to a FIFO queue with deterministic service time
    ``1/capacity_cps`` and the tier's admission bound: an arrival that
    finds ``queue_depth`` checks already waiting is shed, exactly the
    admission-control decision the live tier makes.
    """
    rng = random.Random(config.seed * 1_000_003 + users)
    n_arrivals = max(1, round(users * config.checks_per_user_per_day))
    burst_start = config.burst_hours[0] * 3600.0
    burst_end = config.burst_hours[1] * 3600.0
    arrivals = sorted(
        rng.uniform(burst_start, burst_end)
        if rng.random() < config.burst_fraction
        else rng.uniform(0.0, SECONDS_PER_DAY)
        for _ in range(n_arrivals)
    )
    service = 1.0 / max(capacity_cps, 1e-9)
    next_free = 0.0
    busy = 0.0
    shed = 0
    waits: List[float] = []
    for t in arrivals:
        waiting = max(0.0, next_free - t) / service
        if waiting >= config.queue_depth:
            shed += 1
            continue
        begin = max(t, next_free)
        waits.append(begin - t)
        next_free = begin + service
        busy += service
    waits.sort()

    def pct(p: float) -> float:
        if not waits:
            return 0.0
        return waits[min(len(waits) - 1, int(p * len(waits)))]

    return {
        "users": users,
        "arrivals_per_day": n_arrivals,
        "admitted": len(waits),
        "shed": shed,
        "p50_wait_s": round(pct(0.50), 4),
        "p95_wait_s": round(pct(0.95), 4),
        "utilization": round(busy / SECONDS_PER_DAY, 6),
    }


def run_scalebench(
    config: Optional[ScaleBenchConfig] = None,
) -> Dict[str, object]:
    """Sweep the fleet sizes, then project 1k → 1M users; return the
    BENCH report dict."""
    config = config if config is not None else ScaleBenchConfig()
    levels = [_run_level(config, n) for n in config.server_counts]
    baseline = levels[0]
    top = max(levels, key=lambda entry: entry["servers"])
    scaling = top["checks_per_sec"] / max(baseline["checks_per_sec"], 1e-9)
    capacity = float(top["checks_per_sec"])
    projection = [
        _simulate_population(config, users, capacity)
        for users in config.users_levels
    ]
    return {
        "benchmark": (
            "measurement-tier scaling (checks/sec vs server count, "
            "queued dispatch)"
        ),
        "config": {**config.to_dict(), "ipc_sites": len(config.ipc_sites)},
        "levels": levels,
        "scaling": {
            "baseline_servers": baseline["servers"],
            "top_servers": top["servers"],
            "speedup": round(scaling, 2),
        },
        "projection": {
            "capacity_checks_per_sec": round(capacity, 4),
            "levels": projection,
        },
    }
