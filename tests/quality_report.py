"""Write ``QUALITY.json``: the detector scored against the stores' quotes.

Runs :mod:`repro.experiments.quality` at test and default scale (seeds
2017 and 7 each) and writes both to ``QUALITY.json`` at the repository
root.  ``tests/experiments/test_quality.py`` recomputes the test-scale
part and holds it equal to the file.

    PYTHONPATH=src python tests/quality_report.py
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
QUALITY_JSON = REPO / "QUALITY.json"
SCALES = ("test", "default")


def report() -> dict:
    from repro.experiments import quality

    return {scale: quality.run(scale).runs for scale in SCALES}


def main() -> int:
    QUALITY_JSON.write_text(json.dumps(report(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {QUALITY_JSON.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
