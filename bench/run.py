"""The wall-clock benchmark: five workloads, end to end and layer by layer.

    python3 bench/run.py [workload ...] [--seed N] [--repeats R] [--trace] [--out FILE]
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass of a workload runs in a fresh subprocess (worker.py), one
at a time.  The end-to-end pass sets up several times and reports the
median set-up; ``--trace`` adds a pass at a quarter of the op count
with no wrapper installed and one with the outside-in wrappers of
tracing.py, checks that both produced the same rows, and derives the
per-layer table from the spans.  The second form is the driver's: it
prints one JSON object as the last line — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Any failed output check makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-ups per end-to-end pass (their median is ``setup_s``)
N_SETUPS = 3
#: ``--smoke`` runs this share of the ops and of every preload
SMOKE_SCALE = 0.02
#: the traced and the matching untraced pass run this share of the ops
TRACE_SHARE = 0.25
#: live_mix op pairs behind ``obs.plane_overhead_frac``
OBS_PAIRS = 60
DEFAULT_SEED = 2017


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def units_for(name: str, seconds: float, smoke: bool) -> int:
    scale = SMOKE_SCALE if smoke else 1.0
    return max(1, round(WORKLOADS[name].rate * seconds * scale))


def spawn(name: str, seed: int, units: int, smoke: bool, *flags: str) -> dict:
    """Run one worker pass to completion; return its JSON plus stderr."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--units", str(units),
           "--scale", str(SMOKE_SCALE if smoke else 1.0), *flags]
    # string hashing is randomised per process, and the dict layouts it
    # produces move a pass by several per cent; pin it like the seed
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, env=env)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name}: worker exited with code {done.returncode}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    out["stderr"] = done.stderr
    return out


def measure(name: str, seed: int, seconds: float, smoke: bool, spec: dict,
            errors: list) -> dict:
    """The end-to-end pass: untraced, full op count, median of N set-ups."""
    units = units_for(name, seconds, smoke)
    setups = [
        spawn(name, seed, units, smoke, "--setup-only")["setup_s"]
        for _ in range(0 if smoke else N_SETUPS - 1)
    ]
    main = spawn(name, seed, units, smoke)
    errors.extend(f"{name}: {problem}" for problem in main["problems"])
    values = dict(main["metrics"])
    values["setup_s"] = statistics.median(setups + [main["setup_s"]])
    values["peak_rss_mb"] = main["peak_rss_mb"]
    return {
        "metrics": {m["name"]: values[m["name"]] for m in spec["end_to_end"]},
        "attempted": main["attempted"],
        "failed": main["failed"],
        "rows_digest": main["rows_digest"],
        "samples": main["samples"],
        "tail_pct": main["tail_pct"],
        "cal": {k: main["metrics"][k] for k in ("cal.slice_ms", "cal.cv")},
    }


def trace(name: str, seed: int, seconds: float, smoke: bool, spec: dict,
          errors: list) -> dict:
    """The per-layer pass: same rows with and without the wrappers."""
    units = max(1, round(units_for(name, seconds, smoke) * TRACE_SHARE))
    plain = spawn(name, seed, units, smoke)
    traced = spawn(name, seed, units, smoke, "--traced")
    for result in (plain, traced):
        errors.extend(f"{name}: {problem}" for problem in result["problems"])
    if plain["rows_digest"] != traced["rows_digest"]:
        errors.append(f"{name}: traced pass produced different rows "
                      f"({traced['rows_digest'][:12]} != {plain['rows_digest'][:12]})")
    values = dict(plain["metrics"])
    values.update({k: v for k, v in traced["metrics"].items() if k not in values})
    values["raw.setup_s"] = plain["raw.setup_s"]
    values["trace.overhead_frac"] = traced["mean_op_ms"] / plain["mean_op_ms"] - 1.0
    # SocketTransport.close() cancels its serve tasks and asyncio reports each
    values["net.transport.close_errors"] = plain["stderr"].count("Exception in callback")
    if name == "live_mix":
        pairs = max(2, round(OBS_PAIRS * (SMOKE_SCALE if smoke else 1.0)))
        key = "obs.plane_overhead_frac"
        values[key] = spawn(name, seed, pairs, smoke, "--obs")[key]
    return {
        # a layer no workload exercises reads 0; a patch point that no
        # longer resolves reads null
        "metrics": {m["name"]: values.get(m["name"], 0.0) for m in spec["per_layer"]},
        "attempted": plain["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "rows_digest": plain["rows_digest"],
    }


def fingerprint(cal: dict) -> dict:
    """The machine the numbers came from (``cal`` is one pass's slices)."""
    return {"nproc": os.cpu_count(), "python": platform.python_version(), **cal}


def print_table(name: str, runs: list, layers, spec: dict) -> None:
    first = runs[0]
    print(f"== {name}: {first['attempted']} ops, tail = p{first['tail_pct']} of "
          f"{first['samples']} samples, rows_digest {first['rows_digest'][:16]}")
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]] for run in runs]
        each = "  ".join(f"{v:.4f}" for v in values) if len(values) > 1 else ""
        print(f"  {metric['name']:<16}{statistics.median(values):>12.4f} "
              f"{metric['unit']:<6}{each}")
    failed = sum(run["failed"] for run in runs)
    print(f"  {'failed_share':<16}{failed / sum(run['attempted'] for run in runs):>12.4f}")
    if layers is None:
        return
    print(f"  -- per layer (traced pass, {layers['attempted']} ops)")
    for metric in spec["per_layer"]:
        value = layers["metrics"][metric["name"]]
        shown = "null" if value is None else f"{value:.4f}"
        if value != 0:
            print(f"  {metric['name']:<40}{shown:>14} {metric['unit']}")
    print("  (per-layer metrics that read 0 are not shown)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="*", metavar="workload",
                        help=f"any of {', '.join(WORKLOADS)} (default: all five)")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="driver form: run this one and print one JSON line last")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="reference seconds of timed work (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write every number as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SCALE:.0%} of the ops; results marked smoke")
    args = parser.parse_args(argv)
    for name in args.workloads:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}")

    if not (ROOT / "src" / "repro").is_dir():
        print("bench: no src/repro next to bench/ — nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    errors: list = []

    if args.workload:
        step = trace if args.trace else measure
        result = step(args.workload, args.seed, seconds, args.smoke, spec, errors)
        for error in errors:
            print(f"CHECK FAILED {error}", file=sys.stderr)
        print(json.dumps({
            "correct": not errors,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                m["name"]: {"value": result["metrics"][m["name"]] or 0.0, "unit": m["unit"]}
                for m in spec["per_layer" if args.trace else "end_to_end"]
            },
        }))
        return 1 if errors else 0

    names = args.workloads or list(WORKLOADS)
    started = time.time()
    runs = {name: [] for name in names}
    for repeat in range(args.repeats):  # interleaved by workload
        for name in names:
            print(f"{name}: run {repeat + 1}/{args.repeats}", file=sys.stderr)
            runs[name].append(measure(name, args.seed, seconds, args.smoke, spec, errors))
    layers = {
        name: trace(name, args.seed, seconds, args.smoke, spec, errors) if args.trace else None
        for name in names
    }
    report = {
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "claim": None,
        "cal_ref_ms": calibrate.CAL_REF_MS,
        "started_unix": started,
        "fingerprint": fingerprint(runs[names[0]][0]["cal"]),
        "workloads": {},
    }
    for name in names:
        print_table(name, runs[name], layers[name], spec)
        for a, b in zip(runs[name], runs[name][1:]):
            if a["rows_digest"] != b["rows_digest"]:
                errors.append(f"{name}: rows_digest differs between repeats")
        report["workloads"][name] = {
            "ops": runs[name][0]["attempted"],
            "rows_digest": runs[name][0]["rows_digest"],
            "failed": sum(run["failed"] for run in runs[name]),
            "runs": [run["metrics"] for run in runs[name]],
            "median": {
                m["name"]: statistics.median(run["metrics"][m["name"]] for run in runs[name])
                for m in spec["end_to_end"]
            },
            "per_layer": layers[name]["metrics"] if layers[name] else None,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for error in errors:
        print(f"CHECK FAILED {error}", file=sys.stderr)
    print("output checks: " + ("FAILED" if errors else "all passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
