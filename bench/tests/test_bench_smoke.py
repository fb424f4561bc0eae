"""Smoke test of the benchmark itself (not in Tier-1 ``testpaths``).

    python -m pytest bench/tests -q

Runs every workload at 2 % of its op count and checks the shape of what
comes out — never a timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: per-layer metrics that are counts or ratios of counts: seed-determined
EXACT = [
    m["name"] for m in SPEC["per_layer"]
    if m["unit"] in ("count", "bytes")
    or m["name"] in ("failed_share", "storage.shard_skew", "core.detector.truth_agreement",
                     "core.engine.page_cache_hit_ratio", "core.tagspath.memo_hit_ratio")
]


def run_smoke(tmp_path, name: str, seed: int, tag: str) -> dict:
    out = tmp_path / f"{name}-{seed}-{tag}.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), name, "--smoke", "--trace",
         "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "output checks: all passed" in done.stdout
    return json.loads(out.read_text(encoding="utf-8"))


def test_spec_shape_and_budgets():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert 1 <= len(SPEC["end_to_end"]) <= 9
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for layer in tracing.LAYERS:
        assert {f"{layer}.self_ms", f"{layer}.calls"} <= set(names)


def test_patch_table_resolves_against_src():
    sys.path.insert(0, str(ROOT / "src"))
    for _layer, module, path in tracing.PATCH_TABLE:
        _owner, _name, fn = tracing.resolve(module, path)
        assert callable(fn), (module, path)


def test_predictions_name_known_metrics_and_workloads():
    rows = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))["rows"]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {"failed"}
    for row in rows:
        assert set(row["layer_metrics"]) <= per_layer, row
        assert set(row["moves"]) <= end_to_end, row
        assert set(row["on"]) | set(row["not_on"]) <= set(WORKLOADS), row


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_workload(tmp_path, name):
    first = run_smoke(tmp_path, name, 2017, "a")
    again = run_smoke(tmp_path, name, 2017, "b")
    other = run_smoke(tmp_path, name, 2018, "c")
    assert first["smoke"] is True and first["claim"] is None
    a, b, c = (r["workloads"][name] for r in (first, again, other))
    assert set(a["median"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(a["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(value is not None for value in a["per_layer"].values())
    assert a["failed"] == 0
    # same seed: same rows and same counts; another seed: other rows
    assert a["rows_digest"] == b["rows_digest"] != c["rows_digest"]
    assert a["ops"] == b["ops"] == c["ops"]
    assert a["median"]["vantage_yield"] == b["median"]["vantage_yield"]
    for metric in EXACT:
        assert a["per_layer"][metric] == b["per_layer"][metric], metric
    assert (BENCH / "out" / f"trace_{name}.jsonl").stat().st_size > 0


def test_driver_form_prints_exactly_the_contract_keys():
    for flag, group in (("0", "end_to_end"), ("1", "per_layer")):
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "report_rw", "--smoke",
             "--seed", "5", "--seconds", "10", "--trace", flag],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC[group]]
        for metric in SPEC[group]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float))


def _report(seed, started, ops_per_s, smoke=False):
    median = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    median["ops_per_s"] = ops_per_s
    return {"seed": seed, "seconds": 10, "smoke": smoke, "cal_ref_ms": 0.8,
            "started_unix": started,
            "workloads": {"live_mix": {"ops": 480, "failed": 0, "median": median}}}


def _write_pairs(tmp_path, gain, **overrides):
    paths = []
    for k in range(10):
        parent_first = k % 2 == 0
        for side in ("parent", "change"):
            started = 100.0 * k + (0 if (side == "parent") == parent_first else 50)
            value = 50.0 + 0.1 * (k % 3) + (gain if side == "change" else 0.0)
            path = tmp_path / f"{k}-{side}.json"
            path.write_text(json.dumps(_report(2017, started, value, **overrides)))
            paths.append(str(path))
    return paths


def test_compare_verdicts_and_refusals(tmp_path, capsys):
    assert compare.main(_write_pairs(tmp_path, gain=5.0)) == 0
    assert re.search(r"live_mix\s+ops_per_s.*10/10\s+improved", capsys.readouterr().out)
    assert compare.main(_write_pairs(tmp_path, gain=-10.0)) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main(_write_pairs(tmp_path, gain=0.0)) == 0
    assert "improved" not in capsys.readouterr().out
    with pytest.raises(SystemExit, match="smoke"):
        compare.main(_write_pairs(tmp_path, gain=0.0, smoke=True))
    paths = _write_pairs(tmp_path, gain=0.0)
    with pytest.raises(SystemExit, match="pairs"):
        compare.main(paths[:6])
    odd = Path(paths[3])
    odd.write_text(json.dumps(_report(2018, 1.0, 50.0)))
    with pytest.raises(SystemExit, match="differ"):
        compare.main(paths)
