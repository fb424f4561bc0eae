"""Tests for result rows and the Fig. 2 result page."""

import pytest

from repro.core.pricecheck import PriceCheckResult, ResultRow


def row(country="ES", eur=100.0, kind="IPC", low=False, error=None, **kw):
    return ResultRow(
        kind=kind, proxy_id="p", country=country, region=country, city="c",
        original_text=None if error else "EUR100",
        detected_amount=None if error else eur,
        detected_currency=None if error else "EUR",
        converted_value=None if error else eur,
        amount_eur=None if error else eur,
        low_confidence=low, error=error, **kw,
    )


@pytest.fixture
def result():
    r = PriceCheckResult(
        job_id="j1", url="http://s.com/product/p", domain="s.com",
        requested_currency="EUR", time=0.0,
        third_party_domains=("doubleclick.net",),
    )
    r.rows = [
        row(kind="You", country="ES", eur=100.0),
        row(country="ES", eur=100.0),
        row(country="US", eur=90.0, low=True),
        row(country="CA", eur=110.0),
        row(country="JP", error="price not found on page"),
    ]
    return r


class TestRowAccess:
    def test_valid_rows_excludes_errors(self, result):
        assert len(result.valid_rows()) == 4

    def test_rows_in_country(self, result):
        assert len(result.rows_in_country("ES")) == 2

    def test_initiator_row(self, result):
        assert result.initiator_row.kind == "You"

    def test_countries_sorted(self, result):
        assert result.countries() == ["CA", "ES", "US"]


class TestSpreads:
    def test_normalized_spread(self, result):
        assert result.normalized_spread() == pytest.approx(20.0 / 90.0)

    def test_has_difference(self, result):
        assert result.has_price_difference()

    def test_no_rows_no_spread(self):
        empty = PriceCheckResult(
            job_id="j", url="u", domain="d", requested_currency="EUR", time=0.0
        )
        assert empty.normalized_spread() is None
        assert not empty.has_price_difference()


class TestVariantLabels:
    def test_you(self):
        assert row(kind="You").variant_label() == "You"

    def test_ipc_label(self):
        r = row(kind="IPC", country="US")
        assert r.variant_label() == "US, c"

    def test_ppc_label_with_ua(self):
        r = row(kind="PPC", ua_os="Windows 7", ua_browser="Chrome")
        assert r.variant_label() == "Windows 7, Chrome, ES"


class TestResultPage:
    def test_contains_all_variants(self, result):
        page = result.render_result_page()
        assert "You" in page
        assert "(unavailable)" in page

    def test_low_confidence_asterisk_and_footnote(self, result):
        page = result.render_result_page()
        assert "*" in page
        assert "confidence is low" in page

    def test_no_footnote_without_low_confidence(self):
        r = PriceCheckResult(
            job_id="j", url="u", domain="d", requested_currency="EUR", time=0.0
        )
        r.rows = [row()]
        assert "confidence is low" not in r.render_result_page()

    def test_third_party_disclosure(self, result):
        assert "doubleclick.net" in result.render_result_page()

    def test_converted_currency_shown(self, result):
        assert "EUR 100.00" in result.render_result_page()
