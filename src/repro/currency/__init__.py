"""Currency engine: ISO codes, notations, exchange rates, detection.

Reproduces Sect. 3.5 of the paper ("The currency detection problem"): a
three-part algorithm that normalizes the selected text, identifies the
currency through 3-letter codes, custom retailer notations, or bare
symbols (flagged low-confidence when ambiguous), and extracts the numeric
amount — including the letters/digits split for concatenated words such
as ``EUR654``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    ".codes": [
        "AMBIGUOUS_SYMBOLS", "CURRENCIES", "CUSTOM_NOTATIONS", "Currency",
    ],
    ".rates": ["ExchangeRateProvider"],
    ".detect": [
        "Confidence", "CurrencyDetectionError", "DetectedPrice", "detect_price",
        "format_price",
    ],
})
