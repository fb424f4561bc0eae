"""Browsing profile vectors over a fixed reference domain list.

The reference list is either the "Alexa top domains" or the "users top
domains" (the Fig. 8(a) comparison); the vector's i-th coordinate is the
user's visit frequency to the i-th reference domain, normalized so the
most-visited domain maps to 1.  For the cryptographic protocol the
coordinates are quantized to integers in [0, Q].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class ProfileVector:
    """A normalized (and quantized) browsing profile."""

    domains: Tuple[str, ...]
    frequencies: Tuple[float, ...]  # in [0, 1]
    quantized: Tuple[int, ...]  # in [0, quantization]
    quantization: int

    def __post_init__(self) -> None:
        if not (len(self.domains) == len(self.frequencies) == len(self.quantized)):
            raise ValueError("vector component length mismatch")


def profile_from_counts(
    counts: Counter,
    reference_domains: Sequence[str],
    quantization: int = 100,
) -> ProfileVector:
    """Build a profile vector from domain-level visit counts.

    Normalization follows the paper: divide by the count of the user's
    most visited domain *within the reference list*, so the top domain
    maps to 1.0.  Users with no visits to any reference domain get the
    all-zero vector.
    """
    if quantization < 1:
        raise ValueError("quantization must be >= 1")
    raw = [counts.get(d, 0) for d in reference_domains]
    peak = max(raw) if raw else 0
    if peak == 0:
        frequencies = [0.0] * len(reference_domains)
    else:
        frequencies = [c / peak for c in raw]
    quantized = [int(round(f * quantization)) for f in frequencies]
    return ProfileVector(
        domains=tuple(reference_domains),
        frequencies=tuple(frequencies),
        quantized=tuple(quantized),
        quantization=quantization,
    )
