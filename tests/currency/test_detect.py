"""Tests for the 3-part currency detection algorithm (Sect. 3.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.currency.codes import CURRENCIES, CUSTOM_NOTATIONS
from repro.currency.detect import (
    Confidence,
    CurrencyDetectionError,
    detect_price,
    format_price,
    parse_amount,
)


class TestIsoNotation:
    """Case (a): 3-letter notation, including glued forms like EUR654."""

    def test_glued_code(self):
        result = detect_price("EUR654")
        assert (result.currency, result.amount) == ("EUR", 654.0)
        assert result.confidence is Confidence.HIGH

    def test_spaced_code_suffix(self):
        result = detect_price("654.50 USD")
        assert (result.currency, result.amount) == ("USD", 654.5)

    def test_lowercase_code(self):
        result = detect_price("eur 12.99")
        assert (result.currency, result.amount) == ("EUR", 12.99)

    @pytest.mark.parametrize(
        "text,code,amount",
        [
            ("ILS2,963", "ILS", 2963.0),
            ("SEK6,283", "SEK", 6283.0),
            ("JPY88,204", "JPY", 88204.0),
            ("CZK18,215", "CZK", 18215.0),
            ("KRW829,075", "KRW", 829075.0),
            ("NZD997", "NZD", 997.0),
            ("CAD912", "CAD", 912.0),
        ],
    )
    def test_fig2_original_texts(self, text, code, amount):
        """Every 'Original Text' row of Fig. 2 detects correctly."""
        result = detect_price(text)
        assert (result.currency, result.amount) == (code, amount)
        assert result.confidence is Confidence.HIGH


class TestCustomNotation:
    """Case (b): retailer custom notations like US$."""

    def test_us_dollar(self):
        result = detect_price("US$699")
        assert (result.currency, result.amount) == ("USD", 699.0)
        assert result.confidence is Confidence.HIGH

    def test_canadian(self):
        result = detect_price("C$ 912.00")
        assert (result.currency, result.amount) == ("CAD", 912.0)

    def test_brazilian_real(self):
        result = detect_price("R$ 1.234,56")
        assert (result.currency, result.amount) == ("BRL", 1234.56)

    def test_koruna(self):
        result = detect_price("18 215 Kč")
        assert (result.currency, result.amount) == ("CZK", 18215.0)


class TestSymbols:
    """Case (c): bare symbols; ambiguous ones are low confidence."""

    def test_dollar_ambiguous(self):
        result = detect_price("$699")
        assert result.currency == "USD"
        assert result.amount == 699.0
        assert result.confidence is Confidence.LOW
        assert "CAD" in result.candidates
        assert result.confidence is Confidence.LOW

    def test_euro_unambiguous(self):
        result = detect_price("€ 654")
        assert result.currency == "EUR"
        assert result.confidence is Confidence.HIGH

    def test_pound(self):
        result = detect_price("£23.40")
        assert (result.currency, result.amount) == ("GBP", 23.4)

    def test_yen_ambiguous(self):
        result = detect_price("¥88,204")
        assert result.currency == "JPY"
        assert result.confidence is Confidence.LOW

    def test_unknown_notation(self):
        result = detect_price("754 flurbos")
        assert result.currency is None
        assert result.confidence is Confidence.UNKNOWN
        assert result.amount == 754.0


class TestValidation:
    def test_too_long_rejected(self):
        with pytest.raises(CurrencyDetectionError):
            detect_price("x" * 26)

    def test_25_chars_accepted(self):
        detect_price("1" + "0" * 8 + " " * 10 + "EUR  ")

    def test_no_digit_rejected(self):
        with pytest.raises(CurrencyDetectionError):
            detect_price("free shipping")

    def test_injection_rejected(self):
        with pytest.raises(CurrencyDetectionError):
            detect_price("<b>1</b>")

    def test_newlines_normalized(self):
        result = detect_price("EUR\n 654")
        assert result.amount == 654.0


class TestAmountParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1,234.56", 1234.56),
            ("1.234,56", 1234.56),
            ("2,963", 2963.0),
            ("18.215", 18215.0),
            ("18 215", 18215.0),
            ("1'234", 1234.0),
            ("10.00", 10.0),
            ("1,5", 1.5),
            ("0.99", 0.99),
            ("1,234,567", 1234567.0),
            ("654", 654.0),
        ],
    )
    def test_separator_conventions(self, text, expected):
        assert parse_amount(text) == pytest.approx(expected)

    def test_no_digits(self):
        assert parse_amount("abc") is None


class TestFormatRoundTrip:
    @pytest.mark.parametrize("style", ["iso_tight", "iso_space"])
    @given(
        amount=st.floats(min_value=0.01, max_value=90000.0, allow_nan=False),
        code=st.sampled_from(sorted(CURRENCIES)),
    )
    @settings(max_examples=60, deadline=None)
    def test_iso_styles_roundtrip(self, style, amount, code):
        decimals = CURRENCIES[code].decimals
        amount = round(amount, decimals)
        text = format_price(amount, code, style=style)
        if len(text) > 25:
            return  # the paper's selection-length cap
        result = detect_price(text)
        assert result.currency == code
        assert result.amount == pytest.approx(amount)

    @given(
        amount=st.floats(min_value=0.01, max_value=90000.0, allow_nan=False),
        code=st.sampled_from(sorted({c for c in CUSTOM_NOTATIONS.values()})),
    )
    @settings(max_examples=60, deadline=None)
    def test_custom_notation_roundtrip(self, amount, code):
        """Currencies with a custom notation detect unambiguously."""
        decimals = CURRENCIES[code].decimals
        amount = round(amount, decimals)
        text = format_price(amount, code, style="custom")
        if len(text) > 25:
            return
        result = detect_price(text)
        assert result.currency == code
        assert result.amount == pytest.approx(amount)

    @given(
        amount=st.floats(min_value=0.01, max_value=90000.0, allow_nan=False),
        code=st.sampled_from(sorted(CURRENCIES)),
    )
    @settings(max_examples=60, deadline=None)
    def test_symbol_style_amount_roundtrip(self, amount, code):
        """Symbol styles may be ambiguous about the currency but the
        amount must always survive the round trip."""
        decimals = CURRENCIES[code].decimals
        amount = round(amount, decimals)
        text = format_price(amount, code, style="symbol")
        if len(text) > 25:
            return
        result = detect_price(text)
        assert result.amount == pytest.approx(amount)
        if result.currency != code:
            assert code in result.candidates

class TestContinentalStyle:
    """European rendering: dot grouping, comma decimals, suffix symbol."""

    def test_format(self):
        assert format_price(1234.56, "EUR", style="continental") == "1.234,56 €"

    def test_roundtrip(self):
        result = detect_price(format_price(1234.56, "EUR", style="continental"))
        assert (result.currency, result.amount) == ("EUR", 1234.56)

    def test_integer_currency(self):
        text = format_price(49993.0, "JPY", style="continental")
        assert text == "49.993 ¥"
        result = detect_price(text)
        assert result.amount == 49993.0

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            format_price(1.0, "EUR", style="victorian")


class TestSeparatorAndRetryMix:
    """Continental separators combined with glued ISO codes (Fig. 2)."""

    @pytest.mark.parametrize("text, code, amount", [
        ("1.234,56", None, 1234.56),     # continental, no currency
        ("18 215", None, 18215.0),       # space grouping, no currency
        ("EUR654", "EUR", 654.0),        # glued prefix code
        ("654EUR", "EUR", 654.0),        # glued suffix code
        ("EUR1.234,56", "EUR", 1234.56),
        ("1.234,56EUR", "EUR", 1234.56),
        ("18 215 Kč", "CZK", 18215.0),
        ("CZK18 215", "CZK", 18215.0),
        ("usd1,234.56", "USD", 1234.56),
    ])
    def test_mixed(self, text, code, amount):
        result = detect_price(text)
        assert result.currency == code
        assert result.amount == pytest.approx(amount)

    def test_memoized_result_shared(self):
        """detect_price is cached: identical text → the same instance."""
        detect_price.cache_clear()
        a = detect_price("US$ 17.50")
        b = detect_price("US$ 17.50")
        assert a is b

    def test_rejections_not_cached(self):
        detect_price.cache_clear()
        with pytest.raises(CurrencyDetectionError):
            detect_price("no digits here")
        with pytest.raises(CurrencyDetectionError):
            detect_price("no digits here")
        assert detect_price.cache_info().currsize == 0


def _legacy_detect_currency(text):
    """The pre-compiled-table detection loop, kept verbatim as the
    executable reference for the equivalence property below."""
    from repro.currency.codes import AMBIGUOUS_SYMBOLS, UNIQUE_SYMBOLS
    from repro.currency.detect import _LETTER_RUN_RE

    for match in _LETTER_RUN_RE.finditer(text):
        token = match.group(0)
        if len(token) != 3:
            continue
        upper = token.upper()
        if upper in CURRENCIES:
            remainder = text[: match.start()] + " " + text[match.end():]
            return upper, Confidence.HIGH, (upper,), remainder

    for notation in sorted(CUSTOM_NOTATIONS, key=len, reverse=True):
        idx = text.find(notation)
        if idx != -1:
            code = CUSTOM_NOTATIONS[notation]
            remainder = text[:idx] + " " + text[idx + len(notation):]
            return code, Confidence.HIGH, (code,), remainder

    for symbol in sorted(UNIQUE_SYMBOLS, key=len, reverse=True):
        idx = text.find(symbol)
        if idx != -1:
            code = UNIQUE_SYMBOLS[symbol]
            remainder = text[:idx] + " " + text[idx + len(symbol):]
            return code, Confidence.HIGH, (code,), remainder

    for symbol in sorted(AMBIGUOUS_SYMBOLS, key=len, reverse=True):
        idx = text.find(symbol)
        if idx != -1:
            candidates = AMBIGUOUS_SYMBOLS[symbol]
            remainder = text[:idx] + " " + text[idx + len(symbol):]
            confidence = (
                Confidence.HIGH if len(candidates) == 1 else Confidence.LOW
            )
            return candidates[0], confidence, candidates, remainder

    return None, Confidence.UNKNOWN, (), text


class TestCompiledTierEquivalence:
    """The compiled alternation tables find exactly what the legacy
    priority loops found — code, confidence, candidates, remainder."""

    _ADVERSARIAL = (
        "RM1US$", "CAU$S", "AUS$4", "US$C$1", "NT$MX$2",
        "kr1 Kč", "R$S$1", "zł£7", "EURUSD1", "XEUR2", "2EURX",
    )

    @pytest.mark.parametrize("text", _ADVERSARIAL)
    def test_adversarial_overlaps(self, text):
        from repro.currency.detect import _detect_currency

        assert _detect_currency(text) == _legacy_detect_currency(text)

    @given(text=st.lists(
        st.sampled_from(
            list("0123456789 .,abcXYZ$€£¥") + [
                "US$", "C$", "AU$", "NT$", "MX$", "R$", "kr", "Kč",
                "zł", "EUR", "USD", "JPY", "SEK",
            ]
        ),
        min_size=0, max_size=8,
    ).map("".join))
    @settings(max_examples=300, deadline=None)
    def test_random_texts(self, text):
        from repro.currency.detect import _detect_currency

        assert _detect_currency(text) == _legacy_detect_currency(text)
