"""One pass of one workload in a fresh process (spawned by run.py).

Set-up (imports, world, population, preload, warm-up units) is timed
from ``main()`` entry and bracketed by calibration slices; then, unless
``--setup-only``, the fixed number of units runs with calibration
slices interleaved, every output is checked outside the timed region,
and one JSON object describing the pass is printed as the last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import secrets
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
from workloads import WORKLOADS, obs_plane_overhead  # noqa: E402

#: slices on each side of set-up (after one discarded cold slice)
SETUP_SLICES = 7


def tail_percentile(n_samples: int) -> int:
    """The tail percentile that repeats: p90 from 100 samples up, else p75.

    p95 of live_mix sits where the few heaviest product pages start and
    moved by 7 % between seeds; p90 moved by 2 %.
    """
    return 90 if n_samples >= 100 else 75


def percentile(ordered, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(0, min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def latency_metrics(prefix: str, per_op_ms, total_ms: float, n_ops: int) -> dict:
    ordered = sorted(per_op_ms)
    pct = tail_percentile(len(ordered))
    return {
        f"{prefix}ops_per_s": n_ops / (total_ms / 1e3),
        f"{prefix}op_p50_ms": statistics.median(ordered),
        f"{prefix}op_tail_ms": percentile(ordered, pct),
        f"{prefix}op_p99_ms": percentile(ordered, 99),
    }


def run(args) -> dict:
    calibrate.slice_ms()
    bracket = [calibrate.slice_ms() for _ in range(SETUP_SLICES)]
    t_start = perf_counter()

    tracer = None
    wl = WORKLOADS[args.workload](args.seed, args.units, args.scale)
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
    try:
        # build() performs the repro imports, so patching waits for it; the
        # class-level patches still reach every object build() created
        wl.build()
        if tracer is not None:
            tracer.install()
        for i in range(wl.n_warm):
            wl.prepare(i)
            wl.check(i, wl.unit(i))
        t_ready = perf_counter()
        bracket += [calibrate.slice_ms() for _ in range(SETUP_SLICES)]
        setup_raw_s = t_ready - t_start
        out = {
            "raw.setup_s": setup_raw_s,
            "setup_s": setup_raw_s * calibrate.factor_of(bracket),
        }
        if not args.setup_only:
            out.update(timed_pass(wl, tracer))
    finally:
        wl.close()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def timed_pass(wl, tracer) -> dict:
    # warm-up rows are not part of the run's digest, yield or counters
    wl.reset_tally()
    before = wl.raw_counters()
    cal = calibrate.Calibrator()
    centers, raw_ms, ok = [], [], []
    problems = []
    center = 0
    gc.collect()
    for u in range(wl.n_units):
        i = wl.n_warm + u
        wl.prepare(i)
        if u % wl.cal_every == 0:
            center = cal.take(wl.cal_slices)
        if tracer is not None:
            tracer.begin_op(u)
        t0 = perf_counter()
        try:
            result = wl.unit(i)
            failure = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            failure = f"unit {u}: {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if tracer is not None:
            tracer.end_op()
        centers.append(center)
        raw_ms.append((t1 - t0) * 1e3)
        found = [failure] if failure else wl.check(i, result)
        ok.append(not found)
        problems.extend(found)
    if wl.cal_every > 1:
        cal.take(wl.cal_slices)  # close the last group's window

    factors = [cal.factor(c) for c in centers]
    cal_ms = [r * f for r, f in zip(raw_ms, factors)]
    per_unit = wl.ops_per_unit
    n_ops = wl.n_units * per_unit
    n_failed = sum(1 for good in ok if not good) * per_unit
    done = [k for k, good in enumerate(ok) if good]
    out = {
        "attempted": n_ops,
        "failed": n_failed,
        "problems": problems[:10],
        "rows_digest": wl.digest.hexdigest(),
        "samples": len(done),
        "tail_pct": tail_percentile(len(done)),
        "mean_op_ms": sum(cal_ms) / n_ops,
    }
    metrics = {"failed_share": n_failed / n_ops}
    if done:
        completed = len(done) * per_unit
        for prefix, series in (("", cal_ms), ("raw.", raw_ms)):
            metrics.update(latency_metrics(
                prefix, [series[k] / per_unit for k in done], sum(series), completed))
        for kind in ("read", "write"):
            picked = [cal_ms[k] for k in done if wl.kinds and wl.kinds[k] == kind]
            metrics[f"{kind}_p50_ms"] = statistics.median(picked) if picked else 0.0
    metrics["vantage_yield"] = (
        wl.rows_landed / wl.rows_expected if wl.rows_expected else 0.0)
    metrics.update(cal.summary())
    after = wl.raw_counters()
    delta = {key: after[key] - before.get(key, 0) for key in after}
    metrics.update(wl.layer_metrics(delta, n_ops))
    if tracer is not None:
        metrics.update(tracer.layer_metrics(dict(enumerate(factors)), n_ops))
        trace_dir = HERE / "out"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"trace_{wl.name}.jsonl")
    out["metrics"] = metrics
    return out


def pin_to_one_cpu() -> None:
    """Keep every thread of this pass on one core.

    The socket transport hands each call across three threads.  Spread
    over two vCPUs, every hand-off wakes an idle vCPU, and what that
    costs depends on the host, not on the code — reads went from 1.0 to
    1.8 ms within one run.  On one core a hand-off is a context switch,
    and its cost tracks the calibration slice like everything else.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def seed_tokens(seed: int) -> None:
    """Draw session cookies and login tokens from the seed.

    Stores, trackers and browsers mint them with ``secrets.token_hex``,
    and a store keys its ad rotation on the cookie — so without this the
    pages, the diff sizes and the parse work differ from run to run.
    """
    rng = random.Random(f"tokens:{seed}")
    secrets.token_hex = lambda nbytes=32: rng.randbytes(nbytes).hex()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--obs", action="store_true",
                        help="measure obs.plane_overhead_frac over --units live_mix ops")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    seed_tokens(args.seed)
    if args.obs:
        print(json.dumps({"obs.plane_overhead_frac": obs_plane_overhead(args.seed, args.units)}))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
