"""Paired comparison of a parent commit and a change.

    python3 bench/compare.py P1.json C1.json P2.json C2.json ...

The arguments are ``run.py --out`` files in pairs — parent first, then
the change measured right next to it — and there must be at least ten
pairs, half of them *run* parent-first and half change-first (each file
carries its start time, so the order is checked, not trusted).  For
every (metric, workload) the table gives each side's median and
quartiles and one verdict:

* ``improved``   the change wins at least 9/10 of the pairs (ties count
  for neither side) and the medians differ by more than the distance
  between the parent's own quartiles;
* ``regressed``  the change's median is worse than the parent's by more
  than the bound BENCHMARK.json fixes for the metric;
* ``unresolved`` neither, and the parent's quartile distance is wider
  than the bound — the runs cannot tell (unless every run of the change
  beats every run of the parent);
* ``unchanged``  neither, and the spread is inside the bound.

Files that differ in seed, op counts, ``seconds`` or ``cal_ref_ms``, or
that are marked ``"smoke": true``, are refused: their numbers do not
measure the same thing.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("smoke"):
        raise SystemExit(f"{path}: a smoke run measures nothing; refused")
    return report


def same_experiment(reports: List[Tuple[str, dict]]) -> None:
    """Every file must have measured the same inputs the same way."""
    def key(report: dict):
        ops = {name: w["ops"] for name, w in report["workloads"].items()}
        return report["seed"], report["seconds"], report["cal_ref_ms"], ops

    first_path, first = reports[0]
    for path, report in reports[1:]:
        if key(report) != key(first):
            raise SystemExit(
                f"{path} and {first_path} differ in seed, seconds, op counts or "
                f"cal_ref_ms; refused")


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[int, str]:
    """``(pairs the change won, verdict)`` for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = p_q3 - p_q1
    gain = sign * (c_med - p_med)
    if wins >= WIN_SHARE * len(parent) and gain > spread:
        return wins, "improved"
    if -gain > bound * abs(p_med):
        return wins, "regressed"
    if spread > bound * abs(p_med):
        every_run_better = (
            min(change) > max(parent) if better == "higher" else max(change) < min(parent))
        return wins, "unchanged" if every_run_better else "unresolved"
    return wins, "unchanged"


def main(argv=None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) % 2 or len(paths) < 2 * MIN_PAIRS:
        print(__doc__, file=sys.stderr)
        raise SystemExit(f"need at least {MIN_PAIRS} parent/change pairs, got "
                         f"{len(paths) // 2}")
    reports = [(path, load(path)) for path in paths]
    same_experiment(reports)
    parents = [report for _, report in reports[0::2]]
    changes = [report for _, report in reports[1::2]]
    parent_first = sum(
        1 for p, c in zip(parents, changes) if p["started_unix"] < c["started_unix"])
    if abs(2 * parent_first - len(parents)) > 2:
        raise SystemExit(
            f"{parent_first} of {len(parents)} pairs ran the parent first; alternate "
            f"the order so that drift in the host's speed cancels")

    spec_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    print(f"{len(parents)} pairs ({parent_first} parent-first), seed {parents[0]['seed']}")
    print(f"{'workload':<18}{'metric':<15}{'parent q1/med/q3':>34}"
          f"{'change q1/med/q3':>34}  wins  verdict")
    worst = 0
    for name in parents[0]["workloads"]:
        failed: Dict[str, int] = {
            side: sum(r["workloads"][name]["failed"] for r in group)
            for side, group in (("parent", parents), ("change", changes))
        }
        for metric in spec["end_to_end"]:
            p = [r["workloads"][name]["median"][metric["name"]] for r in parents]
            c = [r["workloads"][name]["median"][metric["name"]] for r in changes]
            wins, result = verdict(p, c, metric["better"], metric["bound"])
            if result == "improved" and failed["change"] > failed["parent"]:
                result = "unresolved"  # a gain does not count when more ops fail
            fmt = "/".join(["{:.4g}"] * 3)
            print(f"{name:<18}{metric['name']:<15}{fmt.format(*quartiles(p)):>34}"
                  f"{fmt.format(*quartiles(c)):>34}  {wins:>2}/{len(p)}  {result}")
            worst |= result == "regressed"
        if failed["change"] != failed["parent"]:
            print(f"{name:<18}failed ops: parent {failed['parent']}, "
                  f"change {failed['change']}")
            worst |= failed["change"] > failed["parent"]
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
