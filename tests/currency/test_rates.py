"""Tests for the exchange-rate provider, pinned to Fig. 2 conversions."""

import pytest

from repro.currency.rates import (
    DEFAULT_RATES_PER_EUR,
    ExchangeRateProvider,
    UnknownCurrencyError,
)


@pytest.fixture
def rates():
    return ExchangeRateProvider()


class TestFig2Conversions:
    """The example result page of Fig. 2 must reproduce exactly."""

    @pytest.mark.parametrize(
        "amount,code,expected_eur",
        [
            (699.0, "USD", 617.65),
            (912.0, "CAD", 646.26),
            (2963.0, "ILS", 665.07),
            (6283.0, "SEK", 667.37),
            (88204.0, "JPY", 655.60),
            (18215.0, "CZK", 662.00),
            (829075.0, "KRW", 668.29),
            (997.0, "NZD", 668.28),
            (654.0, "EUR", 654.0),
        ],
    )
    def test_conversion(self, rates, amount, code, expected_eur):
        assert rates.to_eur(amount, code) == pytest.approx(expected_eur, abs=0.01)


class TestProviderBehaviour:
    def test_identity_conversion(self, rates):
        assert rates.convert(123.45, "USD", "USD") == 123.45

    def test_cross_conversion_consistent(self, rates):
        via_eur = rates.convert(100.0, "USD", "GBP")
        expected = rates.to_eur(100.0, "USD") * rates.rate_per_eur("GBP")
        assert via_eur == pytest.approx(expected)

    def test_unknown_currency(self, rates):
        with pytest.raises(UnknownCurrencyError):
            rates.rate_per_eur("XTS")

    def test_case_insensitive(self, rates):
        assert rates.rate_per_eur("usd") == rates.rate_per_eur("USD")

    def test_no_drift_by_default(self, rates):
        """Rates are fixed: a provider reads its table as it is."""
        assert rates.rate_per_eur("USD") == DEFAULT_RATES_PER_EUR["USD"]

    def test_eur_never_drifts(self):
        assert ExchangeRateProvider({"USD": 2.0}).rate_per_eur("EUR") == 1.0

    def test_custom_rate_table(self):
        provider = ExchangeRateProvider({"USD": 2.0})
        assert provider.convert(4.0, "USD", "EUR") == pytest.approx(2.0)
