"""Tests for browsing profile vectors."""

from collections import Counter

import pytest

from repro.profiles.vector import ProfileVector, profile_from_counts

DOMAINS = ["a.com", "b.com", "c.com", "d.com"]


class TestProfileFromCounts:
    def test_top_domain_maps_to_one(self):
        counts = Counter({"a.com": 10, "b.com": 5})
        profile = profile_from_counts(counts, DOMAINS)
        assert profile.frequencies == (1.0, 0.5, 0.0, 0.0)

    def test_quantization(self):
        counts = Counter({"a.com": 3, "b.com": 1})
        profile = profile_from_counts(counts, DOMAINS, quantization=100)
        assert profile.quantized == (100, 33, 0, 0)

    def test_empty_history(self):
        profile = profile_from_counts(Counter(), DOMAINS)
        assert profile.frequencies == (0.0, 0.0, 0.0, 0.0)
        assert profile.quantized == (0, 0, 0, 0)

    def test_off_reference_domains_ignored(self):
        counts = Counter({"weird.com": 50, "a.com": 2})
        profile = profile_from_counts(counts, DOMAINS)
        # a.com is the top *reference* domain, so it maps to 1
        assert profile.frequencies[0] == 1.0

    def test_invalid_quantization(self):
        with pytest.raises(ValueError):
            profile_from_counts(Counter(), DOMAINS, quantization=0)

    def test_component_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProfileVector(
                domains=("a",), frequencies=(1.0, 0.5), quantized=(100,),
                quantization=100,
            )
