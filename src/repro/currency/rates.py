"""Exchange rates, obtained "in real time" by the Measurement servers.

Rates are stored as units of currency per 1 EUR.  The defaults are
calibrated so that the example result page of Fig. 2 reproduces exactly:
``$699 → €617.65``, ``CAD912 → €646.26``, ``ILS2,963 → €665.07``,
``SEK6,283 → €667.37``, ``JPY88,204 → €655.60``, ``CZK18,215 → €662.00``,
``KRW829,075 → €668.29`` and ``NZD997 → €668.28``.

The provider can optionally apply a deterministic daily drift so that
"real time" rates move over the simulated deployment window — this is
one of the benign causes of unclassified price variation the paper notes
(divergent currency converters, Sect. 2).
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, Optional

from repro.net.events import SECONDS_PER_DAY

#: Units per EUR, mid-2016 era, tuned to the Fig. 2 conversions.
DEFAULT_RATES_PER_EUR: Dict[str, float] = {
    "EUR": 1.0,
    "USD": 699.0 / 617.65,       # 1.13171...
    "GBP": 0.790,
    "CHF": 1.090,
    "CAD": 912.0 / 646.26,       # 1.41120...
    "JPY": 88204.0 / 655.60,     # 134.539...
    "CZK": 18215.0 / 662.00,     # 27.5151...
    "KRW": 829075.0 / 668.29,    # 1240.59...
    "NZD": 997.0 / 668.28,       # 1.49189...
    "SEK": 6283.0 / 667.37,      # 9.41459...
    "ILS": 2963.0 / 665.07,      # 4.45517...
    "AUD": 1.520,
    "SGD": 1.550,
    "THB": 39.50,
    "BRL": 3.900,
    "HKD": 8.600,
    "DKK": 7.450,
    "NOK": 9.300,
    "PLN": 4.300,
    "RON": 4.500,
    "HUF": 310.0,
    "BGN": 1.956,
    "HRK": 7.600,
    "MXN": 20.50,
    "ARS": 16.50,
    "CLP": 745.0,
    "COP": 3300.0,
    "INR": 74.00,
    "CNY": 7.300,
    "TWD": 35.50,
    "MYR": 4.500,
    "IDR": 14800.0,
    "PHP": 52.00,
    "ZAR": 16.30,
    "TRY": 3.300,
    "RUB": 73.00,
    "UAH": 28.00,
    "ISK": 135.0,
}


class UnknownCurrencyError(KeyError):
    """The requested currency is not in the rate table."""


class ExchangeRateProvider:
    """Real-time-style exchange-rate source with optional daily drift.

    ``drift`` is the peak relative deviation of a rate over its sinusoidal
    cycle (period 60 simulated days).  With the default ``drift=0.0`` the
    provider is exact and time-invariant, which keeps unit tests and the
    Fig. 2 reproduction deterministic.
    """

    def __init__(
        self,
        rates_per_eur: Optional[Dict[str, float]] = None,
        drift: float = 0.0,
    ) -> None:
        self._rates = dict(DEFAULT_RATES_PER_EUR if rates_per_eur is None else rates_per_eur)
        if "EUR" not in self._rates:
            self._rates["EUR"] = 1.0
        self._drift = drift

    def rate_per_eur(self, code: str, at_time: float = 0.0) -> float:
        """Units of ``code`` per one EUR at the given simulated time."""
        code = code.upper()
        try:
            base = self._rates[code]
        except KeyError:
            raise UnknownCurrencyError(code) from None
        if self._drift == 0.0 or code == "EUR":
            return base
        # Deterministic pseudo-random phase per currency keeps the drift
        # reproducible without threading an RNG through every conversion.
        phase = (zlib.crc32(code.encode()) % 360) * math.pi / 180.0
        days = at_time / SECONDS_PER_DAY
        return base * (1.0 + self._drift * math.sin(2.0 * math.pi * days / 60.0 + phase))

    def convert(
        self,
        amount: float,
        from_code: str,
        to_code: str,
        at_time: float = 0.0,
    ) -> float:
        """Convert ``amount`` between two currencies at the given time."""
        if from_code.upper() == to_code.upper():
            return amount
        eur = amount / self.rate_per_eur(from_code, at_time)
        return eur * self.rate_per_eur(to_code, at_time)

    def to_eur(self, amount: float, from_code: str, at_time: float = 0.0) -> float:
        return self.convert(amount, from_code, "EUR", at_time)
