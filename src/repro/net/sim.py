"""Latency model and network error types of the simulation.

:class:`LatencyModel` turns a pair of locations into a one-way delay
(same city, same country, international, with lognormal jitter).  Two
places draw from it: :class:`~repro.net.transport.SimTransport`, for the
simulated round trip of each component message, and
:func:`fetch_duration`, for the wall time of one proxied page fetch —
which is what the price-check protocol's timing needs: the initiator's
add-on blocks on the result page, and measurement latency only matters
in aggregate (Table 1), where it is fed into the queueing model.

:class:`NetworkError` and :class:`NetworkTimeout` are the delivery
failures both transports raise.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net.geo import Location


class NetworkError(RuntimeError):
    """Raised when a request cannot be delivered (host down / unknown)."""


class NetworkTimeout(NetworkError):
    """The request was sent but no response arrived before the deadline."""


class LatencyModel:
    """One-way latency between two locations, with lognormal jitter.

    Same city ≈ 5 ms, same country ≈ 20 ms, international ≈ 120 ms —
    coarse but sufficient: the experiments only depend on latency through
    the Table-1 service-time model and the "fetch at the same time"
    property, which the simulation guarantees by construction.
    """

    SAME_CITY = 0.005
    SAME_COUNTRY = 0.020
    INTERNATIONAL = 0.120

    def __init__(self, rng: Optional[random.Random] = None, jitter: float = 0.25) -> None:
        self._rng = rng if rng is not None else random.Random(0)
        self._jitter = jitter

    def base_latency(self, src: Location, dst: Location) -> float:
        if src.country != dst.country:
            return self.INTERNATIONAL
        if src.city != dst.city:
            return self.SAME_COUNTRY
        return self.SAME_CITY

    def latency(self, src: Location, dst: Location) -> float:
        base = self.base_latency(src, dst)
        if self._jitter <= 0:
            return base
        return base * self._rng.lognormvariate(0.0, self._jitter)


#: simulated server-side time to render one product page (connection
#: setup + page generation); latency rides on top of this.
FETCH_SERVICE_SECONDS = 0.35


def fetch_duration(
    model: LatencyModel,
    src: Location,
    dst: Optional[Location],
    slowdown: float = 1.0,
) -> float:
    """Simulated wall time of one proxied page fetch.

    Round trip to the vantage point plus the store's service time,
    stretched by the vantage point's chronic ``slowdown`` factor
    (Sect. 5's overloaded PlanetLab nodes).  ``dst=None`` — a vantage
    point whose location is unknown, e.g. a peer that vanished from the
    overlay — is billed at the international baseline.
    """
    if dst is None:
        one_way = model.INTERNATIONAL
    else:
        one_way = model.latency(src, dst)
    return (2.0 * one_way + FETCH_SERVICE_SECONDS) * max(1.0, slowdown)
