"""The unified benchmark suite: every benchmark, one report, one verdict.

``repro bench`` grew out of separate CI steps — ``throughput``,
``storagebench``, ``scalebench`` — each with its own output file and
its own pass/fail flag.  This module runs any subset of them with one
config, merges their reports into a single
``BENCH_all.json``, and evaluates every regression gate in one place,
so "did performance regress anywhere?" is one exit code instead of
several scattered ones.

The gates mirror the standalone CLI verbs exactly (same keys, same
comparison direction), so a suite run and the individual runs can never
disagree about a regression:

* ``throughput`` — top-level pipelined/serial speedup must *exceed*
  ``throughput_speedup``; with ``max_telemetry_overhead`` set, the full
  telemetry plane (metrics + journey tracing + flight recorder) must
  cost at most that fraction of wall time;
* ``storage`` — every engine's indexed path must beat the scan by more
  than ``index_speedup``;
* ``scale`` — checks/sec at the largest fleet must be at least
  ``scaling_speedup`` times the single-server baseline;
* ``mesh`` — the multi-process wall-clock run must complete every check
  and sustain at least ``mesh_min_checks_per_sec`` checks/sec.  Opt-in
  (not in the default ``include``): it spawns real worker processes.

Set a gate to ``None`` to run that benchmark ungated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["BenchSuiteConfig", "run_benchsuite"]

#: every benchmark the suite knows, in run order
ALL_BENCHMARKS: Tuple[str, ...] = (
    "throughput", "storage", "scale", "mesh",
)

#: what a bare suite run includes — "mesh" is opt-in because it spawns
#: real OS processes (CI runs it in the dedicated mesh-smoke job)
DEFAULT_BENCHMARKS: Tuple[str, ...] = (
    "throughput", "storage", "scale",
)


@dataclass
class BenchSuiteConfig:
    """One suite run: which benchmarks, at what scale, gated how."""

    scale: str = "smoke"
    include: Tuple[str, ...] = DEFAULT_BENCHMARKS
    seed: Optional[int] = None
    #: gates (None = run the benchmark but don't gate on it)
    throughput_speedup: Optional[float] = 1.0
    max_telemetry_overhead: Optional[float] = None
    index_speedup: Optional[float] = 5.0
    scaling_speedup: Optional[float] = 3.0
    #: mesh run shape + gate (wall-clock floor; generous on purpose —
    #: the gate catches hangs and lost checks, not scheduler noise)
    mesh_workers: int = 2
    mesh_min_checks_per_sec: Optional[float] = 1.0

    def __post_init__(self) -> None:
        unknown = sorted(set(self.include) - set(ALL_BENCHMARKS))
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {', '.join(unknown)}; "
                f"choose from {', '.join(ALL_BENCHMARKS)}"
            )
        if self.scale not in ("smoke", "default"):
            raise ValueError(
                f"scale must be 'smoke' or 'default', got {self.scale!r}"
            )


def _gate(
    name: str, value: Optional[float], bound: float, kind: str, detail: str
) -> Dict[str, Any]:
    """One gate verdict.  ``kind`` is the comparison: ``gt`` (value must
    exceed the bound), ``ge``, or ``le`` (value must stay under it)."""
    if value is None:
        passed = False
    elif kind == "gt":
        passed = value > bound
    elif kind == "ge":
        passed = value >= bound
    else:
        passed = value <= bound
    return {
        "gate": name,
        "value": value if value is None else round(float(value), 4),
        "bound": bound,
        "comparison": kind,
        "passed": passed,
        "detail": detail,
    }


def _run_throughput(config: BenchSuiteConfig, gates: List[Dict[str, Any]]):
    from repro.workloads.throughput import (
        ThroughputConfig,
        measure_telemetry_overhead,
        run_throughput,
    )

    bench_config = (
        ThroughputConfig.smoke_scale()
        if config.scale == "smoke"
        else ThroughputConfig()
    )
    if config.seed is not None:
        bench_config.seed = config.seed
    report = run_throughput(bench_config)
    if config.throughput_speedup is not None:
        gates.append(_gate(
            "throughput_speedup",
            report["speedup_at_top_level"],
            config.throughput_speedup, "gt",
            "pipelined vs serial checks/sec at the top concurrency level",
        ))
    if config.max_telemetry_overhead is not None:
        overhead = measure_telemetry_overhead(bench_config)
        report["telemetry_overhead"] = overhead
        gates.append(_gate(
            "telemetry_overhead",
            overhead["overhead_fraction"],
            config.max_telemetry_overhead, "le",
            "wall-clock cost of the full telemetry plane on the hot path",
        ))
    return report


def _run_storage(config: BenchSuiteConfig, gates: List[Dict[str, Any]]):
    from repro.workloads.storagebench import (
        StorageBenchConfig,
        run_storagebench,
    )

    bench_config = (
        StorageBenchConfig.smoke_scale()
        if config.scale == "smoke"
        else StorageBenchConfig()
    )
    if config.seed is not None:
        bench_config.seed = config.seed
    report = run_storagebench(bench_config)
    if config.index_speedup is not None:
        gates.append(_gate(
            "index_speedup",
            report["min_index_speedup"],
            config.index_speedup, "gt",
            "worst engine's indexed lookup vs full-table scan",
        ))
    return report


def _run_scale(config: BenchSuiteConfig, gates: List[Dict[str, Any]]):
    from repro.workloads.scalebench import ScaleBenchConfig, run_scalebench

    bench_config = (
        ScaleBenchConfig.smoke_scale()
        if config.scale == "smoke"
        else ScaleBenchConfig()
    )
    if config.seed is not None:
        bench_config.seed = config.seed
    report = run_scalebench(bench_config)
    if config.scaling_speedup is not None:
        gates.append(_gate(
            "scaling_speedup",
            report["scaling"]["speedup"],
            config.scaling_speedup, "ge",
            "checks/sec at the largest fleet vs the baseline",
        ))
    return report


def _run_mesh(config: BenchSuiteConfig, gates: List[Dict[str, Any]]):
    from repro.workloads.throughput import ThroughputConfig, run_mesh_throughput

    bench_config = (
        ThroughputConfig.smoke_scale()
        if config.scale == "smoke"
        else ThroughputConfig()
    )
    if config.seed is not None:
        bench_config.seed = config.seed
    report = run_mesh_throughput(bench_config, n_workers=config.mesh_workers)
    if config.mesh_min_checks_per_sec is not None:
        gates.append(_gate(
            "mesh_completed",
            report["completed_fraction"],
            1.0, "ge",
            "every farmed check came back from the worker fleet",
        ))
        gates.append(_gate(
            "mesh_checks_per_sec",
            report["checks_per_sec_wall"],
            config.mesh_min_checks_per_sec, "ge",
            "wall-clock checks/sec across the worker processes",
        ))
    return report


_RUNNERS = {
    "throughput": _run_throughput,
    "storage": _run_storage,
    "scale": _run_scale,
    "mesh": _run_mesh,
}


def run_benchsuite(
    config: Optional[BenchSuiteConfig] = None,
) -> Dict[str, Any]:
    """Run the selected benchmarks, evaluate every gate, merge reports."""
    config = config if config is not None else BenchSuiteConfig()
    benchmarks: Dict[str, Any] = {}
    gates: List[Dict[str, Any]] = []
    for name in ALL_BENCHMARKS:
        if name not in config.include:
            continue
        benchmarks[name] = _RUNNERS[name](config, gates)
    return {
        "suite": "unified benchmark suite",
        "scale": config.scale,
        "included": [n for n in ALL_BENCHMARKS if n in config.include],
        "benchmarks": benchmarks,
        "gates": gates,
        "all_passed": all(g["passed"] for g in gates),
    }
