"""Tests for price-variation classification."""

import pytest

from repro.core.detector import (
    TOLERANCE,
    analyze_rows,
    differs,
    gap_matches_vat,
    relative_spread,
)
from repro.core.pricecheck import ResultRow
from repro.net.geo import GeoDatabase


@pytest.fixture
def geodb():
    return GeoDatabase()


def row(country, eur, kind="IPC", proxy="p", city="x"):
    return ResultRow(
        kind=kind, proxy_id=proxy, country=country, region=country, city=city,
        original_text=f"{eur} EUR", detected_amount=eur, detected_currency="EUR",
        converted_value=eur, amount_eur=eur,
    )


class TestRule:
    def test_relative_spread(self):
        assert relative_spread([100.0, 110.0, 105.0]) == pytest.approx(0.1)

    def test_nothing_to_compare(self):
        assert relative_spread([]) is None
        assert relative_spread([100.0]) is None
        assert relative_spread([0.0, 1.0]) is None

    def test_differs_beyond_the_tolerance_only(self):
        assert TOLERANCE == 0.005
        assert not differs(None)
        assert not differs(TOLERANCE)
        assert differs(0.0051)


class TestClassification:
    def test_no_difference(self, geodb):
        rows = [row("ES", 100.0), row("FR", 100.0), row("ES", 100.0)]
        report = analyze_rows(rows, geodb)
        assert report.classification == "none"
        assert report.overall_spread == 0.0

    def test_location_based(self, geodb):
        rows = [row("ES", 100.0), row("ES", 100.0), row("CA", 130.0), row("CA", 130.0)]
        report = analyze_rows(rows, geodb)
        assert report.classification == "location"
        assert report.cross_country_spread == pytest.approx(0.30)
        assert report.within_country_spread == {}

    def test_within_country(self, geodb):
        rows = [row("ES", 100.0), row("ES", 107.0), row("FR", 100.0)]
        report = analyze_rows(rows, geodb)
        assert report.classification == "within-country"
        assert report.within_country_spread["ES"] == pytest.approx(0.07)

    def test_single_point_countries_still_location(self, geodb):
        rows = [row("ES", 100.0), row("JP", 150.0)]
        report = analyze_rows(rows, geodb)
        assert report.classification == "location"

    def test_tolerance_absorbs_noise(self, geodb):
        rows = [row("ES", 100.0), row("ES", 100.3)]
        report = analyze_rows(rows, geodb)
        assert report.classification == "none"
        assert report.overall_spread == pytest.approx(0.003)

    def test_invalid_rows_ignored(self, geodb):
        bad = ResultRow(
            kind="IPC", proxy_id="p", country="ES", region="ES", city="x",
            original_text=None, detected_amount=None, detected_currency=None,
            converted_value=None, amount_eur=None, error="nope",
        )
        report = analyze_rows([bad, row("ES", 100.0)], geodb)
        assert report.n_points == 1

    def test_every_differing_country_reported(self, geodb):
        rows = [row("ES", 100.0), row("ES", 103.0), row("GB", 100.0), row("GB", 107.0)]
        report = analyze_rows(rows, geodb)
        assert report.within_country_spread == {
            "ES": pytest.approx(0.03), "GB": pytest.approx(0.07),
        }

    def test_even_country_takes_the_middle_pair_as_median(self, geodb):
        rows = [row("ES", 100.0), row("ES", 100.2), row("ES", 100.4),
                row("ES", 100.4), row("FR", 110.0)]
        report = analyze_rows(rows, geodb)
        assert report.cross_country_spread == pytest.approx(110.0 / 100.3 - 1)
        assert report.classification == "location"

    def test_zero_price_leaves_the_medians_to_decide(self, geodb):
        rows = [row("ES", 0.0), row("ES", 100.0), row("ES", 100.0), row("FR", 110.0)]
        report = analyze_rows(rows, geodb)
        assert report.overall_spread == 0.0
        assert report.cross_country_spread == pytest.approx(0.10)
        assert report.classification == "location"


class TestVatMatching:
    def test_spain_standard(self, geodb):
        assert gap_matches_vat(0.21, "ES", geodb)

    def test_spain_reduced(self, geodb):
        assert gap_matches_vat(0.10, "ES", geodb)

    def test_germany(self, geodb):
        assert gap_matches_vat(0.19, "DE", geodb)

    def test_non_vat_gap(self, geodb):
        assert not gap_matches_vat(0.13, "DE", geodb)

    def test_zero_vat_country_never_matches(self, geodb):
        assert not gap_matches_vat(0.0, "HK", geodb)

    def test_unknown_country(self, geodb):
        assert not gap_matches_vat(0.2, "XX", geodb)

    def test_amazon_signature_end_to_end(self, geodb):
        """The Sect. 7.3 case: logged-in users pay base × (1 + VAT), so the
        within-country gap lands exactly on the VAT scale."""
        rows = [row("DE", 100.0), row("DE", 119.0)]
        report = analyze_rows(rows, geodb)
        assert report.vat_explained["DE"]
