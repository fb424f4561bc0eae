"""Price-check results and the Fig. 2 result page.

A price check produces one :class:`ResultRow` per measurement point (the
initiator shown as "You", then every IPC and PPC).  All prices are
converted to the currency the initiating user requested; rows whose
currency was detected from an ambiguous symbol carry the red-asterisk
low-confidence flag.  :meth:`PriceCheckResult.render_result_page`
produces the textual equivalent of the add-on's result page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.detector import differs, relative_spread


@dataclass(frozen=True)
class ResultRow:
    """One measurement point's observation for a single price check."""

    kind: str  # "You" | "IPC" | "PPC"
    proxy_id: str
    country: str  # ISO code
    region: str
    city: str
    original_text: Optional[str]  # as shown on the fetched page
    detected_amount: Optional[float]
    detected_currency: Optional[str]
    converted_value: Optional[float]  # in the requested currency
    amount_eur: Optional[float]
    low_confidence: bool = False
    #: candidate currencies when the notation was ambiguous (drives the
    #: Measurement server's job-level reconciliation)
    currency_candidates: Tuple[str, ...] = ()
    used_doppelganger: bool = False
    ua_os: Optional[str] = None
    ua_browser: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.converted_value is not None

    def variant_label(self) -> str:
        """The left-hand column of the Fig. 2 result page."""
        if self.kind == "You":
            return "You"
        if self.kind == "PPC" and self.ua_os and self.ua_browser:
            return f"{self.ua_os}, {self.ua_browser}, {self.region}"
        return f"{self.region}, {self.city}"


@dataclass
class PriceCheckResult:
    """Everything the add-on shows for one completed price check."""

    job_id: str
    url: str
    domain: str
    requested_currency: str
    time: float
    rows: List[ResultRow] = field(default_factory=list)
    third_party_domains: Tuple[str, ...] = ()
    #: vantage points the Measurement server fanned out to (initiator +
    #: IPCs + selected PPCs); ``len(rows) < vantage_expected`` means the
    #: job degraded to fewer points (faults, slow proxies, gone peers)
    vantage_expected: int = 0
    degraded: bool = False

    # -- row access ----------------------------------------------------------
    def valid_rows(self) -> List[ResultRow]:
        return [r for r in self.rows if r.ok]

    def rows_in_country(self, country: str) -> List[ResultRow]:
        return [r for r in self.valid_rows() if r.country == country]

    @property
    def initiator_row(self) -> Optional[ResultRow]:
        for row in self.rows:
            if row.kind == "You":
                return row
        return None

    # -- spread statistics -----------------------------------------------------
    def eur_prices(self) -> List[float]:
        return [r.amount_eur for r in self.valid_rows() if r.amount_eur is not None]

    def normalized_spread(self) -> Optional[float]:
        """The relative spread of all valid points, in EUR."""
        return relative_spread(self.eur_prices())

    def has_price_difference(self) -> bool:
        """The add-on's verdict: do this check's prices differ?"""
        return differs(self.normalized_spread())

    # -- rendering -------------------------------------------------------------
    def render_result_page(self) -> str:
        """Textual rendering of the Fig. 2 result page."""
        header = f"{'Variant':<34}{'Converted Value':>18}  {'Original Text':<16}"
        lines = [f"Price check {self.job_id} — {self.url}", header, "-" * len(header)]
        any_low = False
        for row in self.rows:
            if not row.ok:
                value = "(unavailable)"
                original = row.error or ""
            else:
                star = "*" if row.low_confidence else ""
                any_low = any_low or row.low_confidence
                value = f"{self.requested_currency} {row.converted_value:,.2f}{star}"
                original = row.original_text or ""
            lines.append(f"{row.variant_label():<34}{value:>18}  {original:<16}")
        if any_low:
            lines.append(
                "* Currency detection confidence is low. "
                "Please double check the result."
            )
        if self.third_party_domains:
            lines.append(
                "Third-party domains on this page: "
                + ", ".join(self.third_party_domains)
            )
        return "\n".join(lines)
