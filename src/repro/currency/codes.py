"""ISO 4217 currency metadata, symbols, and retailer custom notations.

The paper distinguishes three ways e-retailers present currencies
(Sect. 3.5): the 3-letter ISO notation (``USD``), custom notations
(``US$``), and bare symbols (``$``) which may be ambiguous across
currencies.  The tables below are the "custom currency list that we
empirically built" equivalent for the simulated internet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Currency:
    """One supported currency."""

    code: str
    name: str
    symbol: str
    decimals: int = 2  # JPY/KRW-style currencies use 0


_CURRENCY_ROWS = [
    ("EUR", "Euro", "€", 2),
    ("USD", "US Dollar", "$", 2),
    ("GBP", "Pound Sterling", "£", 2),
    ("CHF", "Swiss Franc", "CHF", 2),
    ("CAD", "Canadian Dollar", "$", 2),
    ("JPY", "Japanese Yen", "¥", 0),
    ("CZK", "Czech Koruna", "Kč", 2),
    ("KRW", "South Korean Won", "₩", 0),
    ("NZD", "New Zealand Dollar", "$", 2),
    ("SEK", "Swedish Krona", "kr", 2),
    ("ILS", "Israeli New Shekel", "₪", 2),
    ("AUD", "Australian Dollar", "$", 2),
    ("SGD", "Singapore Dollar", "$", 2),
    ("THB", "Thai Baht", "฿", 2),
    ("BRL", "Brazilian Real", "R$", 2),
    ("HKD", "Hong Kong Dollar", "$", 2),
    ("DKK", "Danish Krone", "kr", 2),
    ("NOK", "Norwegian Krone", "kr", 2),
    ("PLN", "Polish Zloty", "zł", 2),
    ("RON", "Romanian Leu", "lei", 2),
    ("HUF", "Hungarian Forint", "Ft", 0),
    ("BGN", "Bulgarian Lev", "лв", 2),
    ("HRK", "Croatian Kuna", "kn", 2),
    ("MXN", "Mexican Peso", "$", 2),
    ("ARS", "Argentine Peso", "$", 2),
    ("CLP", "Chilean Peso", "$", 0),
    ("COP", "Colombian Peso", "$", 0),
    ("INR", "Indian Rupee", "₹", 2),
    ("CNY", "Chinese Yuan", "¥", 2),
    ("TWD", "New Taiwan Dollar", "$", 0),
    ("MYR", "Malaysian Ringgit", "RM", 2),
    ("IDR", "Indonesian Rupiah", "Rp", 0),
    ("PHP", "Philippine Peso", "₱", 2),
    ("ZAR", "South African Rand", "R", 2),
    ("TRY", "Turkish Lira", "₺", 2),
    ("RUB", "Russian Ruble", "₽", 2),
    ("UAH", "Ukrainian Hryvnia", "₴", 2),
    ("ISK", "Icelandic Krona", "kr", 0),
]

CURRENCIES: Dict[str, Currency] = {
    code: Currency(code, name, symbol, decimals)
    for code, name, symbol, decimals in _CURRENCY_ROWS
}

#: Custom retailer notations → ISO code (case (b) of the detection
#: algorithm).  These resolve unambiguously.
CUSTOM_NOTATIONS: Dict[str, str] = {
    "US$": "USD",
    "U$S": "USD",
    "C$": "CAD",
    "CA$": "CAD",
    "CAD$": "CAD",
    "A$": "AUD",
    "AU$": "AUD",
    "NZ$": "NZD",
    "HK$": "HKD",
    "S$": "SGD",
    "SG$": "SGD",
    "R$": "BRL",
    "NT$": "TWD",
    "MX$": "MXN",
    "AR$": "ARS",
    "RM": "MYR",
    "Rp": "IDR",
    "Kč": "CZK",
    "zł": "PLN",
    "lei": "RON",
    "Ft": "HUF",
    "kn": "HRK",
}

#: Bare symbols that map to a *unique* currency (case (c), high match).
UNIQUE_SYMBOLS: Dict[str, str] = {
    "€": "EUR",
    "£": "GBP",
    "₩": "KRW",
    "₪": "ILS",
    "฿": "THB",
    "₹": "INR",
    "₱": "PHP",
    "₺": "TRY",
    "₽": "RUB",
    "₴": "UAH",
    "лв": "BGN",
}

#: Bare symbols shared by several currencies (case (c), low confidence).
#: The first entry is the detector's default guess — e.g. the paper's
#: result page shows ``$699`` converted as USD with a red asterisk.
AMBIGUOUS_SYMBOLS: Dict[str, Tuple[str, ...]] = {
    "$": ("USD", "CAD", "AUD", "NZD", "SGD", "HKD", "MXN", "ARS", "CLP", "COP", "TWD"),
    "¥": ("JPY", "CNY"),
    "kr": ("SEK", "NOK", "DKK", "ISK"),
    "R": ("ZAR",),
    "CHF": ("CHF",),
}
