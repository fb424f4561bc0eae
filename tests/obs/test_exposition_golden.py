"""The text exposition of two telemetry drills, byte for byte.

``tests/golden/metrics_requests24.prom`` is ``repro metrics --requests
24`` (the lossy 24-request drill) and ``metrics_slo_drill.prom`` is the
registry of :func:`repro.workloads.journey.run_slo_drill`, which also
exposes the queue-tier, supervisor and audit families.  Both runs are
seeded, so a change to how a family is recorded must leave every
family, series and value as it was.  A change that moves one on purpose
regenerates the file and says why.

Each drill runs in a fresh interpreter: the ``sheriff_extract_*``
families count work through the process-wide extraction memo, so a
drill run after other tests in this process would read other values.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
GOLDEN = TESTS / "golden"
SRC = str(TESTS.parent / "src")


def fresh(*args: str) -> str:
    """Run the interpreter with ``args``; return what it prints."""
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_metrics_drill_matches_its_golden(tmp_path):
    out = tmp_path / "metrics.prom"
    fresh("-m", "repro", "metrics", "--requests", "24", "--out", str(out))
    assert out.read_text() == (GOLDEN / "metrics_requests24.prom").read_text()


def test_the_slo_drill_matches_its_golden():
    exposition = fresh("-c", (
        "import sys\n"
        "from repro.workloads.journey import run_slo_drill\n"
        "run, _, _ = run_slo_drill()\n"
        "sys.stdout.write(run.sheriff.telemetry.registry.render_exposition())\n"
    ))
    assert exposition == (GOLDEN / "metrics_slo_drill.prom").read_text()
