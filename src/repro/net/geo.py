"""Synthetic geography: countries, cities, VAT schedules, and GeoIP.

The live $heriff geolocates peers via an IP geolocation service at
zip-code, city, or country granularity (Sect. 3.2).  We reproduce that
with a deterministic synthetic GeoIP database: every country owns a
distinct ``10.<index>.0.0/16`` block and the :class:`GeoDatabase` maps an
address back to a :class:`Location`.

Countries carry the metadata the experiments need:

* the local currency (ISO 4217 code) used by stores in that country,
* the VAT schedule — standard plus reduced category rates — which drives
  the amazon.com case study of Sect. 7.3 where within-country price
  differences "match almost perfectly the VAT scales",
* a small list of city names so peer listings look like the monitoring
  panel of Fig. 16.

The set includes the 55 countries of the live deployment; the ones called
out by name in the paper (Tables 2 & 4, Fig. 2) are listed first.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Country:
    """Static country metadata used across the simulation."""

    code: str  # ISO 3166-1 alpha-2
    name: str
    currency: str  # ISO 4217
    vat_standard: float  # fraction, e.g. 0.21
    vat_reduced: Tuple[float, ...] = ()
    cities: Tuple[str, ...] = ()
    eu_member: bool = False

    @property
    def vat_rates(self) -> Tuple[float, ...]:
        """All VAT category rates, standard first."""
        return (self.vat_standard,) + self.vat_reduced


@dataclass(frozen=True)
class Location:
    """A resolved vantage point location (country / region / city / ip)."""

    country: str
    region: str
    city: str
    ip: str


# (code, name, currency, standard VAT, reduced VAT rates, cities, eu)
_COUNTRY_ROWS: Sequence[Tuple[str, str, str, float, Tuple[float, ...], Tuple[str, ...], bool]] = [
    ("ES", "Spain", "EUR", 0.21, (0.10, 0.04), ("Madrid", "Barcelona", "Valencia", "Sevilla"), True),
    ("FR", "France", "EUR", 0.20, (0.10, 0.055, 0.021), ("Paris", "Lyon", "Marseille"), True),
    ("US", "United States", "USD", 0.0, (), ("Tennessee", "Massachusetts", "Washington", "New York", "California"), False),
    ("CH", "Switzerland", "CHF", 0.08, (0.025,), ("Zurich", "Geneva", "Bern"), False),
    ("DE", "Germany", "EUR", 0.19, (0.07,), ("Berlin", "Munich", "Hamburg"), True),
    ("BE", "Belgium", "EUR", 0.21, (0.12, 0.06), ("Brussels", "Antwerp"), True),
    ("GB", "United Kingdom", "GBP", 0.20, (0.05,), ("London", "Manchester", "Edinburgh"), True),
    ("NL", "Netherlands", "EUR", 0.21, (0.06,), ("Amsterdam", "Rotterdam"), True),
    ("CY", "Cyprus", "EUR", 0.19, (0.09, 0.05), ("Nicosia", "Limassol"), True),
    ("CA", "Canada", "CAD", 0.05, (), ("British Columbia", "Ontario", "Quebec"), False),
    ("NZ", "New Zealand", "NZD", 0.15, (), ("Dunedin", "Auckland"), False),
    ("PT", "Portugal", "EUR", 0.23, (0.13, 0.06), ("Lisbon", "Porto"), True),
    ("IE", "Ireland", "EUR", 0.23, (0.135, 0.09), ("Dublin", "Cork"), True),
    ("JP", "Japan", "JPY", 0.08, (), ("Tokyo", "Hiroshima", "Osaka"), False),
    ("CZ", "Czech Republic", "CZK", 0.21, (0.15, 0.10), ("Praha", "Brno"), True),
    ("KR", "Korea", "KRW", 0.10, (), ("Seoul", "Busan"), False),
    ("HK", "Hong Kong", "HKD", 0.0, (), ("Hong Kong",), False),
    ("BR", "Brazil", "BRL", 0.17, (), ("Sao Paulo", "Rio de Janeiro"), False),
    ("AU", "Australia", "AUD", 0.10, (), ("Sydney", "Melbourne"), False),
    ("SG", "Singapore", "SGD", 0.07, (), ("Singapore",), False),
    ("TH", "Thailand", "THB", 0.07, (), ("Bangkok", "Chiang Mai"), False),
    ("IL", "Israel", "ILS", 0.17, (), ("Beer-Sheva", "Tel Aviv"), False),
    ("SE", "Sweden", "SEK", 0.25, (0.12, 0.06), ("Scandinavia", "Stockholm"), True),
    ("IT", "Italy", "EUR", 0.22, (0.10, 0.04), ("Rome", "Milan"), True),
    ("AT", "Austria", "EUR", 0.20, (0.10,), ("Vienna", "Graz"), True),
    ("DK", "Denmark", "DKK", 0.25, (), ("Copenhagen",), True),
    ("NO", "Norway", "NOK", 0.25, (0.15,), ("Oslo",), False),
    ("FI", "Finland", "EUR", 0.24, (0.14, 0.10), ("Helsinki",), True),
    ("PL", "Poland", "PLN", 0.23, (0.08, 0.05), ("Warsaw", "Krakow"), True),
    ("GR", "Greece", "EUR", 0.24, (0.13, 0.06), ("Athens", "Thessaloniki"), True),
    ("RO", "Romania", "RON", 0.20, (0.09, 0.05), ("Bucharest",), True),
    ("HU", "Hungary", "HUF", 0.27, (0.18, 0.05), ("Budapest",), True),
    ("BG", "Bulgaria", "BGN", 0.20, (0.09,), ("Sofia",), True),
    ("HR", "Croatia", "HRK", 0.25, (0.13, 0.05), ("Zagreb",), True),
    ("SK", "Slovakia", "EUR", 0.20, (0.10,), ("Bratislava",), True),
    ("SI", "Slovenia", "EUR", 0.22, (0.095,), ("Ljubljana",), True),
    ("EE", "Estonia", "EUR", 0.20, (0.09,), ("Tallinn",), True),
    ("LV", "Latvia", "EUR", 0.21, (0.12,), ("Riga",), True),
    ("LT", "Lithuania", "EUR", 0.21, (0.09, 0.05), ("Vilnius",), True),
    ("LU", "Luxembourg", "EUR", 0.17, (0.14, 0.08), ("Luxembourg",), True),
    ("MT", "Malta", "EUR", 0.18, (0.07, 0.05), ("Valletta",), True),
    ("MX", "Mexico", "MXN", 0.16, (), ("Mexico City",), False),
    ("AR", "Argentina", "ARS", 0.21, (0.105,), ("Buenos Aires",), False),
    ("CL", "Chile", "CLP", 0.19, (), ("Santiago",), False),
    ("CO", "Colombia", "COP", 0.19, (0.05,), ("Bogota",), False),
    ("IN", "India", "INR", 0.18, (0.12, 0.05), ("Mumbai", "Delhi"), False),
    ("CN", "China", "CNY", 0.13, (0.09,), ("Beijing", "Shanghai"), False),
    ("TW", "Taiwan", "TWD", 0.05, (), ("Taipei",), False),
    ("MY", "Malaysia", "MYR", 0.06, (), ("Kuala Lumpur",), False),
    ("ID", "Indonesia", "IDR", 0.10, (), ("Jakarta",), False),
    ("PH", "Philippines", "PHP", 0.12, (), ("Manila",), False),
    ("ZA", "South Africa", "ZAR", 0.14, (), ("Cape Town", "Johannesburg"), False),
    ("TR", "Turkey", "TRY", 0.18, (0.08, 0.01), ("Istanbul", "Ankara"), False),
    ("RU", "Russia", "RUB", 0.18, (0.10,), ("Moscow", "Saint Petersburg"), False),
    ("UA", "Ukraine", "UAH", 0.20, (0.07,), ("Kyiv",), False),
    ("IS", "Iceland", "ISK", 0.24, (0.11,), ("Reykjavik",), False),
]


class GeoDatabase:
    """Deterministic GeoIP database over synthetic 10.x.0.0/16 blocks.

    Country ``i`` (in declaration order) owns ``10.i.0.0/16``.  Within a
    country, city ``j`` owns the ``10.i.j.0/24`` slice; host addresses are
    handed out sequentially by :meth:`allocate_ip`.
    """

    def __init__(self) -> None:
        self._countries: Dict[str, Country] = {}
        self._index: Dict[str, int] = {}
        for i, row in enumerate(_COUNTRY_ROWS):
            code, name, currency, std, reduced, cities, eu = row
            self._countries[code] = Country(
                code=code,
                name=name,
                currency=currency,
                vat_standard=std,
                vat_reduced=reduced,
                cities=cities,
                eu_member=eu,
            )
            self._index[code] = i
        self._next_host: Dict[Tuple[str, str], int] = {}

    # -- country metadata ------------------------------------------------
    def country(self, code: str) -> Country:
        try:
            return self._countries[code]
        except KeyError:
            raise KeyError(f"unknown country code {code!r}") from None

    def country_codes(self) -> List[str]:
        return list(self._countries)

    # -- IP allocation and lookup ----------------------------------------
    #: /24 blocks per city: city i owns third octets [8i, 8i+7], giving
    #: ~2000 addresses per city.
    BLOCKS_PER_CITY = 8

    def allocate_ip(self, country_code: str, city: Optional[str] = None) -> str:
        """Hand out the next unused address in the country/city block."""
        country = self.country(country_code)
        if city is None:
            city = country.cities[0] if country.cities else country.name
        if city not in country.cities:
            raise ValueError(f"{city!r} is not a known city of {country.name}")
        city_idx = country.cities.index(city)
        key = (country_code, city)
        host = self._next_host.get(key, 1)
        block, offset = divmod(host - 1, 254)
        if block >= self.BLOCKS_PER_CITY:
            raise RuntimeError(f"address block exhausted for {key}")
        self._next_host[key] = host + 1
        octet3 = city_idx * self.BLOCKS_PER_CITY + block
        return f"10.{self._index[country_code]}.{octet3}.{offset + 1}"

    def make_location(self, country_code: str, city: Optional[str] = None) -> Location:
        """Allocate an IP and build the full :class:`Location` for it."""
        country = self.country(country_code)
        if city is None:
            city = country.cities[0] if country.cities else country.name
        ip = self.allocate_ip(country_code, city)
        return Location(country=country_code, region=country.name, city=city, ip=ip)

    def lookup(self, ip: str) -> Location:
        """Reverse-map a synthetic address back to its location."""
        addr = ipaddress.ip_address(ip)
        octets = str(addr).split(".")
        if octets[0] != "10":
            raise KeyError(f"{ip} is outside the synthetic GeoIP space")
        country_idx = int(octets[1])
        city_idx = int(octets[2]) // self.BLOCKS_PER_CITY
        if country_idx >= len(_COUNTRY_ROWS):
            raise KeyError(f"{ip} does not map to a known country")
        code = _COUNTRY_ROWS[country_idx][0]
        country = self.country(code)
        if city_idx >= len(country.cities):
            raise KeyError(f"{ip} does not map to a known city of {country.name}")
        return Location(
            country=code,
            region=country.name,
            city=country.cities[city_idx],
            ip=ip,
        )
