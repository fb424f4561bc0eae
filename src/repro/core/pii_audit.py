"""The periodic PII audit (Sect. 2.3).

"We also periodically analyze our collected data to discern if PII has
accidentally been stored by our system, e.g., due to omitting to
blacklist a URL.  In case this happens, we will immediately delete the
pertinent information and update our blacklist."

:func:`run_pii_audit` scans the Database server's stored requests and
responses for PII signatures (email addresses, phone-like digit runs,
account-page URL fragments), deletes offending rows, and feeds the URL
paths back into the whitelist's blacklist patterns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.database import DatabaseServer
from repro.core.whitelist import Whitelist
from repro.web.internet import parse_url

#: PII signatures the audit looks for in stored text fields.
PII_PATTERNS: Tuple[Tuple[str, re.Pattern], ...] = (
    ("email", re.compile(r"[\w.+-]+@[\w-]+\.[\w.]+")),
    ("phone", re.compile(r"\+?\d[\d\s()-]{8,}\d")),
    ("account-url", re.compile(r"/(account|profile|settings|orders)(/|$)",
                               re.IGNORECASE)),
)


@dataclass
class PiiFinding:
    """One stored row that carries PII."""

    table: str
    row_id: int
    kind: str  # which pattern fired
    excerpt: str


@dataclass
class PiiAuditReport:
    findings: List[PiiFinding]
    deleted_rows: int
    new_blacklist_patterns: List[str]

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        if self.clean:
            return "PII audit: clean — no personally identifiable data stored"
        lines = [f"PII audit: {len(self.findings)} finding(s), "
                 f"{self.deleted_rows} row(s) deleted"]
        for finding in self.findings:
            lines.append(
                f"  {finding.table}#{finding.row_id} [{finding.kind}]: "
                f"{finding.excerpt[:48]!r}"
            )
        if self.new_blacklist_patterns:
            lines.append(
                "blacklist updated with: "
                + ", ".join(self.new_blacklist_patterns)
            )
        return "\n".join(lines)


def _scan_text(text: str) -> Optional[Tuple[str, str]]:
    for kind, pattern in PII_PATTERNS:
        match = pattern.search(text)
        if match:
            return kind, match.group(0)
    return None


def run_pii_audit(
    db: DatabaseServer,
    whitelist: Optional[Whitelist] = None,
    delete: bool = True,
) -> PiiAuditReport:
    """Scan stored requests/responses, delete hits, update the blacklist.

    A flagged request URL blacklists its first path segment
    (``/account`` for ``/account/jane``)."""
    findings: List[PiiFinding] = []
    new_patterns: List[str] = []
    doomed: Dict[str, List[int]] = {"requests": [], "responses": []}

    for row in db.scan("requests"):
        hit = _scan_text(str(row.get("url", "")))
        if hit is None:
            continue
        kind, excerpt = hit
        findings.append(PiiFinding("requests", row["_id"], kind, excerpt))
        doomed["requests"].append(row["_id"])
        if whitelist is not None:
            _, path = parse_url(row["url"])
            segment = path.strip("/").split("/")[0].lower()
            pattern = f"/{segment}"
            if segment and not whitelist.url_pii_blacklisted(pattern):
                whitelist._pii_patterns = whitelist._pii_patterns + (pattern,)
                new_patterns.append(pattern)

    for row in db.scan("responses"):
        hit = _scan_text(str(row.get("original_text") or ""))
        if hit is None:
            continue
        kind, excerpt = hit
        findings.append(PiiFinding("responses", row["_id"], kind, excerpt))
        doomed["responses"].append(row["_id"])

    deleted = 0
    if delete:
        for table, ids in doomed.items():
            if ids:
                deleted += db.delete_rows(table, ids)

    return PiiAuditReport(
        findings=findings,
        deleted_rows=deleted,
        new_blacklist_patterns=new_patterns,
    )
