"""Tests for the synthetic GeoIP database."""

import pytest

from repro.net.geo import GeoDatabase


@pytest.fixture
def geodb():
    return GeoDatabase()


class TestCountryMetadata:
    def test_at_least_55_countries(self, geodb):
        assert len(geodb._countries) >= 55

    def test_paper_top10_countries_present(self, geodb):
        for code in ("ES", "FR", "US", "CH", "DE", "BE", "GB", "NL", "CY", "CA"):
            assert geodb.country(code) is not None

    def test_vat_rates_standard_first(self, geodb):
        spain = geodb.country("ES")
        assert spain.vat_rates[0] == 0.21
        assert 0.10 in spain.vat_rates

    def test_germany_standard_vat(self, geodb):
        assert geodb.country("DE").vat_standard == 0.19

    def test_us_has_no_vat(self, geodb):
        assert geodb.country("US").vat_standard == 0.0

    def test_currency_mapping(self, geodb):
        assert geodb.country("ES").currency == "EUR"
        assert geodb.country("GB").currency == "GBP"
        assert geodb.country("JP").currency == "JPY"

    def test_unknown_country_raises(self, geodb):
        with pytest.raises(KeyError):
            geodb.country("XX")

    def test_eu_flags(self, geodb):
        assert geodb.country("ES").eu_member
        assert not geodb.country("US").eu_member


class TestIpAllocation:
    def test_roundtrip(self, geodb):
        loc = geodb.make_location("ES", "Barcelona")
        looked_up = geodb.lookup(loc.ip)
        assert looked_up.country == "ES"
        assert looked_up.city == "Barcelona"

    def test_default_city_is_first(self, geodb):
        loc = geodb.make_location("FR")
        assert loc.city == "Paris"

    def test_sequential_allocation_distinct(self, geodb):
        ips = {geodb.allocate_ip("ES", "Madrid") for _ in range(10)}
        assert len(ips) == 10

    def test_unknown_city_rejected(self, geodb):
        with pytest.raises(ValueError):
            geodb.allocate_ip("ES", "Atlantis")

    def test_lookup_outside_space_rejected(self, geodb):
        with pytest.raises(KeyError):
            geodb.lookup("192.168.1.1")

    def test_block_exhaustion(self, geodb):
        capacity = 254 * geodb.BLOCKS_PER_CITY
        for _ in range(capacity):
            geodb.allocate_ip("CY", "Nicosia")
        with pytest.raises(RuntimeError):
            geodb.allocate_ip("CY", "Nicosia")

    def test_rollover_block_still_resolves(self, geodb):
        for _ in range(300):  # spills into the second /24 block
            ip = geodb.allocate_ip("ES", "Madrid")
        location = geodb.lookup(ip)
        assert location.city == "Madrid"
        assert location.country == "ES"
