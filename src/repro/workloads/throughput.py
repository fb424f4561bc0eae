"""Throughput benchmark: serial vs pipelined price-check execution.

The Table-1 question, asked of our own architecture: how many price
checks per second can the back-end sustain as concurrent users grow?
Each check fans out to the full IPC fleet (30 nodes by default, the
paper's deployment) plus PPCs, so the fetch fan-out dominates; the
pipelined engine overlaps those fetches on per-server worker pools
while the serial baseline performs one fetch at a time.

Each level is ONE engine run read two ways — the same fetches, the same
rows — differing only in how the fetch durations pack onto the simulated
timeline:

* **serial** — one fetch in flight globally; elapsed time is the sum of
  every fetch duration (``Σ handle.service_seconds``), what the run
  would have cost with no overlap at all;
* **pipelined** — each server's bounded worker pool runs fetches
  concurrently and jobs from concurrent users overlap; elapsed time is
  the event-loop makespan.

``run_throughput`` sweeps the concurrency levels (1/8/64 users by
default) and returns a JSON-ready report; the CLI command
``repro throughput`` writes it to ``BENCH_throughput.json``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.clients.ipc import DEFAULT_IPC_SITES
from repro.core.config import knob
from repro.obs import Telemetry
from repro.workloads.cell import CellConfig, build_cell


@dataclass
class ThroughputConfig(CellConfig):
    """Knobs of one benchmark run; the IPC fleet every check fans out
    to defaults to the paper's 30."""

    n_measurement_servers: int = 4
    #: page-cache TTL in simulated seconds (0 disables)
    page_cache_ttl: float = 30.0
    #: concurrent-user levels to sweep
    levels: Tuple[int, ...] = knob((1, 8, 64), ge=1, min_len=1)
    #: price checks executed per level (each level reuses a fresh world)
    total_checks: int = knob(64, ge=1)

    @classmethod
    def smoke_scale(cls) -> "ThroughputConfig":
        """A reduced instance for CI perf-smoke and unit tests."""
        return cls(
            levels=(1, 8),
            total_checks=16,
            ipc_sites=DEFAULT_IPC_SITES[:10],
            n_measurement_servers=2,
            n_stores=4,
        )


def _run_level(
    config: ThroughputConfig, n_users: int,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Run ``total_checks`` checks at one concurrency level.

    Returns the ``(serial, pipelined)`` report entries of the one run:
    they share every count and differ in ``elapsed_s`` — the summed
    fetch durations versus the engine-loop makespan.  With a
    :class:`Telemetry` attached, the pipelined entry additionally
    carries the p50/p95/p99 per-check latency read back from the
    ``sheriff_check_latency_seconds`` histogram.
    """
    _, sheriff, urls, addons = build_cell(config, n_users, telemetry)
    completed = 0
    service_seconds = 0.0
    rows_total = 0
    start = sheriff.engine.now
    issued = 0
    while issued < config.total_checks:
        wave_size = min(n_users, config.total_checks - issued)
        wave = []
        for u in range(wave_size):
            addon = addons[u]
            url = urls[(issued + u) % len(urls)]
            wave.append((addon, addon.submit_price_check(url)))
        for addon, pending in wave:
            service_seconds += pending.handle.service_seconds
            result = addon.collect(pending)
            rows_total += len(result.rows)
            completed += 1
        issued += wave_size

    def entry(mode: str, elapsed: float, peak_workers: int) -> Dict[str, object]:
        elapsed = max(elapsed, 1e-9)
        return {
            "mode": mode,
            "users": n_users,
            "checks": completed,
            "rows": rows_total,
            "elapsed_s": round(elapsed, 3),
            "checks_per_sec": round(completed / elapsed, 4),
            "cache_hits": sheriff.engine.cache.hits,
            "cache_misses": sheriff.engine.cache.misses,
            "batched_writes": sheriff.db.batched_writes,
            "peak_workers": peak_workers,
        }

    serial = entry("serial", service_seconds, 0)
    overlapped = entry(
        "pipelined", sheriff.engine.now - start,
        max((p.peak_busy for p in sheriff.engine._pools.values()), default=0),
    )
    latency = sheriff.telemetry.registry.get("sheriff_check_latency_seconds")
    if latency is not None:
        overlapped["latency_percentiles"] = {
            name: None if value is None else round(value, 4)
            for name, value in latency.percentiles().items()
        }
    return serial, overlapped


def run_throughput(config: Optional[ThroughputConfig] = None) -> Dict[str, object]:
    """Sweep the levels; return the BENCH report dict.

    Every run carries a metrics-only telemetry plane so the report can
    quote per-check latency percentiles from the engine's histogram;
    metrics never perturb the simulated timeline, so ``checks_per_sec``
    is what an uninstrumented run would report.
    """
    config = config if config is not None else ThroughputConfig()
    levels = []
    for n_users in config.levels:
        serial, overlapped = _run_level(
            config, n_users, telemetry=Telemetry(metrics_only=True),
        )
        speedup = overlapped["checks_per_sec"] / max(serial["checks_per_sec"], 1e-9)
        levels.append(
            {
                "users": n_users,
                "checks": serial["checks"],
                "serial": serial,
                "pipelined": overlapped,
                "speedup": round(speedup, 2),
            }
        )
    return {
        "benchmark": "price-check throughput (checks/sec, serial vs pipelined)",
        "config": {**config.to_dict(), "ipc_sites": len(config.ipc_sites)},
        "levels": levels,
        "max_speedup": max(level["speedup"] for level in levels),
        "speedup_at_top_level": levels[-1]["speedup"],
    }


def run_mesh_throughput(
    config: Optional[ThroughputConfig] = None,
    n_workers: int = 2,
    concurrency: Optional[int] = None,
) -> Dict[str, object]:
    """Run the engine across ``n_workers`` OS processes.

    Unlike the sim sweep above, this measures **wall-clock** checks/sec:
    each worker process builds its own seeded world and serves
    ``check_price`` over the socket transport, so the number reflects
    real process scheduling and real serialization cost.  The report
    lands in BENCH_throughput.json under ``"mesh"`` next to the sim
    numbers — the sim answers "does pipelining help", the mesh answers
    "what does this box actually sustain".
    """
    # imported lazily: sim-only runs shouldn't pull in subprocess machinery
    from repro.mesh.launch import MeshLauncher, WorkerSpec

    config = config if config is not None else ThroughputConfig()
    spec = WorkerSpec(
        n_users=max(config.levels),
        **{f.name: getattr(config, f.name) for f in dataclasses.fields(CellConfig)},
    )
    launcher = MeshLauncher(n_workers=n_workers, spec=spec)
    try:
        hellos = launcher.start()
        report = launcher.run_checks(
            total=config.total_checks, concurrency=concurrency
        )
    finally:
        exit_codes = launcher.shutdown()
    entry = report.to_dict()
    entry["protocol"] = hellos[0]["protocol"] if hellos else None
    entry["exit_codes"] = exit_codes
    return entry


def traced_run(
    config: Optional[ThroughputConfig] = None, n_users: Optional[int] = None
) -> Telemetry:
    """One run with the full telemetry plane (spans included).

    Returns the :class:`Telemetry` whose tracer holds every job's span
    tree and whose registry holds the run's metrics — the CI perf-smoke
    exports both as artifacts.
    """
    config = config if config is not None else ThroughputConfig()
    telemetry = Telemetry()
    _run_level(
        config,
        n_users if n_users is not None else config.levels[-1],
        telemetry=telemetry,
    )
    return telemetry


def measure_telemetry_overhead(
    config: Optional[ThroughputConfig] = None, repeats: int = 3
) -> Dict[str, float]:
    """Wall-clock cost of the full telemetry plane on the hot path.

    The simulated timeline is identical with telemetry on or off by
    construction, so the honest cost measure is host wall-clock time:
    best-of-``repeats`` for one run at the top concurrency
    level, telemetry off vs fully on — metrics, span tracing (the
    per-job journey chain included), and the flight recorder, the same
    plane ``repro journey`` reads.  The CI perf-smoke gates on
    ``overhead_fraction`` staying under 10%.
    """
    config = config if config is not None else ThroughputConfig()
    n_users = config.levels[-1]

    def best_wall(make_telemetry) -> float:
        best = float("inf")
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            _run_level(config, n_users, telemetry=make_telemetry())
            best = min(best, time.perf_counter() - t0)
        return best

    off = best_wall(lambda: None)
    on = best_wall(lambda: Telemetry())
    return {
        "telemetry_off_wall_s": round(off, 4),
        "telemetry_on_wall_s": round(on, 4),
        "overhead_fraction": round(max(0.0, on / max(off, 1e-9) - 1.0), 4),
    }
