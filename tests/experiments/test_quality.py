"""``QUALITY.json``: the detector scored against the stores' quotes.

``tests/quality_report.py`` writes the file; its test-scale part is
recomputed here and must equal it exactly (every run is seeded, so a
change to the check path that moves a verdict shows as a diff)."""

import json

from repro.experiments import quality
from tests.quality_report import QUALITY_JSON


def test_the_test_scale_part_equals_quality_json():
    committed = json.loads(QUALITY_JSON.read_text())
    assert quality.run("test").runs == committed["test"]


def test_a_kind_counts_when_its_multipliers_differ():
    es = (10.0, (("country:ES", 1.0), ("ab:+0.050", 1.05), ("drift:day3", 1.2)))
    fr = (13.0, (("country:FR", 1.3), ("ab:+0.050", 1.05), ("drift:day3", 1.2)))
    assert quality.kinds_apart([es, fr]) == ("location",)
    assert quality.kinds_apart([es, es]) == ()
    vat = (11.0, (("vat:DE:0.190", 1.19),))
    # ES's country factor is 1.0, the same as no country factor at all
    assert quality.kinds_apart([es, vat]) == ("A/B", "VAT-explained", "temporal")
