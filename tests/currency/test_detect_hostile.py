"""Adversarial price text against the currency detector.

The text comes from a page an untrusted peer fetched.  The compiled
notation alternations of ``repro.currency.detect`` never see an oversized
selection: ``_validate`` refuses it right after whitespace
normalization, in time linear in the input, its message quotes a bounded
prefix, and a refusal leaves nothing behind in the ``lru_cache``.
"""

import time

import pytest

from repro.currency import detect
from repro.currency.detect import (
    ERROR_QUOTE_MAX,
    CurrencyDetectionError,
    detect_price,
)


def _selections(n):
    """``n`` repeats of each shape that would make a careless alternation
    backtrack: symbol runs, prefixes of custom notations, ISO codes glued
    together, and digits drowned in whitespace."""
    return {
        "symbol run": "$" * n + "1",
        "custom-notation prefixes": "US" * n + "1",
        "glued ISO codes": "EUR" * n + "5",
        "digits in whitespace": ("1" + " \n\t\r " * 2) * (n // 10),
        "symbols and separators": "1,.$€" * (n // 5),
    }


@pytest.fixture
def no_alternation(monkeypatch):
    """Fail the test if any currency tier or the amount parser runs."""

    def reached(*args, **kwargs):
        raise AssertionError("the notation alternations ran on a refused selection")

    for name in ("_detect_currency", "_tier_find", "parse_amount"):
        monkeypatch.setattr(detect, name, reached)


@pytest.mark.parametrize("n", [50_000, 200_000])
@pytest.mark.parametrize("shape", sorted(_selections(10)))
def test_oversized_selection_is_refused_before_detection(shape, n, no_alternation):
    text = _selections(n)[shape]
    assert len(text) >= n
    cached = detect_price.cache_info().currsize
    with pytest.raises(CurrencyDetectionError) as refusal:
        detect_price(text)
    message = str(refusal.value)
    assert message.startswith("selection longer than 25 characters: ")
    assert len(message) < ERROR_QUOTE_MAX + 100
    assert detect_price.cache_info().currsize == cached  # nothing retained


def _best_of(runs, text):
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        with pytest.raises(CurrencyDetectionError):
            detect_price(text)
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.parametrize("shape", sorted(_selections(10)))
def test_refusal_time_is_linear_in_the_input(shape):
    small = _best_of(5, _selections(50_000)[shape])
    large = _best_of(5, _selections(400_000)[shape])
    assert large < 0.25  # measured: 2-4 ms at 200-600 kB
    # 8x the input: linear is 8x, quadratic 64x
    assert large < 20 * small + 0.005


def test_short_refusals_quote_the_whole_selection():
    """Nothing an honest page produces is affected by the bound."""
    with pytest.raises(CurrencyDetectionError) as refusal:
        detect_price("Sold out")
    assert str(refusal.value) == "selection contains no digit: 'Sold out'"
    text = "x" * ERROR_QUOTE_MAX
    with pytest.raises(CurrencyDetectionError) as refusal:
        detect_price(text)
    assert str(refusal.value) == f"selection longer than 25 characters: {text!r}"
    with pytest.raises(CurrencyDetectionError) as refusal:
        detect_price(text + "y")
    assert str(refusal.value) == (
        f"selection longer than 25 characters: {text!r}… ({ERROR_QUOTE_MAX + 1} characters)"
    )


def test_whitespace_padding_is_normalized_away_in_linear_time():
    """300 k of whitespace around a valid price is not a refusal: it
    collapses before anything else looks at the text."""
    padded = " \n" * 150_000 + "EUR 12.50" + "\t " * 150_000
    started = time.perf_counter()
    assert detect_price(padded).amount == 12.5
    assert time.perf_counter() - started < 0.25
    detect_price.cache_clear()  # do not leave 600 kB behind as a cache key
