"""Domain whitelisting and the PII URL blacklist (Sect. 2.3).

"We only allow requests towards sanctioned e-commerce websites.
Rejected requests are collected in the background for manual inspection
and update of the whitelist."  Separately, "we blacklist the URLs of
user profile or account management pages of e-retailers because they
are likely to include PII".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Set, Tuple

#: URL path fragments that mark likely-PII pages.
DEFAULT_PII_PATTERNS = (
    "/account",
    "/profile",
    "/settings",
    "/orders",
    "/wishlist",
    "/checkout",
    "/login",
)


@dataclass
class RejectedRequest:
    """One rejected price-check request, kept for manual inspection."""

    url: str
    domain: str
    reason: str  # "not-whitelisted" | "pii-blacklisted"
    time: float


class Whitelist:
    """The manually curated set of sanctioned e-commerce domains."""

    def __init__(
        self,
        domains: Iterable[str] = (),
        pii_patterns: Sequence[str] = DEFAULT_PII_PATTERNS,
    ) -> None:
        self._domains: Set[str] = set(domains)
        self._pii_patterns = tuple(pii_patterns)
        self.rejected: List[RejectedRequest] = []

    def add(self, domain: str) -> None:
        self._domains.add(domain)

    def allows_domain(self, domain: str) -> bool:
        return domain in self._domains

    def url_pii_blacklisted(self, path: str) -> bool:
        lowered = path.lower()
        return any(pattern in lowered for pattern in self._pii_patterns)

    def check(self, url: str, domain: str, path: str, time: float) -> Tuple[bool, str]:
        """Full admission check; rejections are logged for inspection.

        Returns ``(allowed, reason)`` where reason is empty on success.
        """
        if not self.allows_domain(domain):
            self.rejected.append(
                RejectedRequest(url=url, domain=domain, reason="not-whitelisted", time=time)
            )
            return False, "not-whitelisted"
        if self.url_pii_blacklisted(path):
            self.rejected.append(
                RejectedRequest(url=url, domain=domain, reason="pii-blacklisted", time=time)
            )
            return False, "pii-blacklisted"
        return True, ""
