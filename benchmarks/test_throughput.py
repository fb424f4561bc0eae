"""Benchmark: price-check throughput, serial vs pipelined.

The Table-1 question asked of our own engine: checks/sec at 1/8/64
concurrent users — one engine run per level, its event-loop makespan
(pipelined) against the summed fetch durations of the same run (the
serial cost).  Emits ``BENCH_throughput.json`` next to the repo root
(the same report the ``repro throughput`` CLI command writes).

Acceptance shape: the pipelined engine must beat serial at every
level, and at full scale (30 IPCs, 64 users) by at least 5×.
"""

import json
import pathlib

from conftest import run_once

from repro.workloads.throughput import ThroughputConfig, run_throughput

OUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def test_throughput(benchmark, scale, strict):
    config = (
        ThroughputConfig.smoke_scale() if scale == "test" else ThroughputConfig()
    )
    report = run_once(benchmark, lambda: run_throughput(config))
    OUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print("\nusers  serial c/s  pipelined c/s  speedup")
    for level in report["levels"]:
        print(
            f"{level['users']:>5}  {level['serial']['checks_per_sec']:>10.3f}"
            f"  {level['pipelined']['checks_per_sec']:>13.3f}"
            f"  {level['speedup']:>6.2f}x"
        )

    for level in report["levels"]:
        # one run read two ways: the speedup is pure scheduling
        assert level["serial"]["rows"] == level["pipelined"]["rows"]
        assert level["serial"]["checks"] == level["pipelined"]["checks"]
        assert level["speedup"] > 1.0
        # the bounded pool was actually exercised
        assert level["pipelined"]["peak_workers"] <= config.max_fetch_workers
        assert level["pipelined"]["peak_workers"] > 1

    # concurrency helps more as users grow
    speedups = [level["speedup"] for level in report["levels"]]
    assert speedups[-1] >= speedups[0]
    if strict:
        # the ISSUE acceptance bar: ≥5× at the top concurrency level
        assert report["speedup_at_top_level"] >= 5.0
