"""DiffStorage: store one full page per job, diffs for the rest.

App. 10.5: the Measurement server has "the DiffStorage module to
minimize the size of HTML code we store in the RDBMS by saving the full
HTML page code reported by the user's add-on and just saving the
difference for the HTML code responses from the IPCs and PPCs."

Diffs are stored as ``SequenceMatcher`` opcodes against the reference
page's line list, which makes reconstruction exact and lets us report
the storage saving the optimization buys (an ablation benchmark).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# an opcode: (tag, ref_lo, ref_hi, replacement_lines)
_Op = Tuple[str, int, int, Tuple[str, ...]]


@dataclass
class _StoredDiff:
    ops: Tuple[_Op, ...]
    size_chars: int


class DiffStorage:
    """Per-job reference page plus per-proxy diffs."""

    def __init__(self) -> None:
        self._reference: Dict[str, List[str]] = {}
        self._reference_size: Dict[str, int] = {}
        self._diffs: Dict[Tuple[str, str], _StoredDiff] = {}
        #: what storing every page verbatim would have cost (ablation)
        self.naive_chars_seen = 0

    # -- writes ----------------------------------------------------------
    def store_reference(self, job_id: str, html: str) -> None:
        """Store the initiator's page verbatim (the diff baseline)."""
        self._reference[job_id] = html.splitlines(keepends=True)
        self._reference_size[job_id] = len(html)
        self.naive_chars_seen += len(html)

    def store_response(self, job_id: str, proxy_id: str, html: str) -> int:
        """Store a proxy's page as a diff; returns the stored size (chars)."""
        if job_id not in self._reference:
            raise KeyError(f"no reference page stored for job {job_id!r}")
        self.naive_chars_seen += len(html)
        ref = self._reference[job_id]
        new = html.splitlines(keepends=True)
        # Pages of one job share most of their leading and trailing
        # lines; only the middles pay for the quadratic matcher.
        shortest = min(len(ref), len(new))
        head = 0
        while head < shortest and ref[head] == new[head]:
            head += 1
        tail = 0
        while tail < shortest - head and ref[-1 - tail] == new[-1 - tail]:
            tail += 1
        middle = new[head:len(new) - tail]
        matcher = difflib.SequenceMatcher(
            a=ref[head:len(ref) - tail], b=middle, autojunk=False
        )
        ops: List[_Op] = [("equal", 0, head, ())] if head else []
        size = 0
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "equal":
                ops.append(("equal", head + i1, head + i2, ()))
            else:
                replacement = tuple(middle[j1:j2])
                ops.append((tag, head + i1, head + i2, replacement))
                size += sum(len(line) for line in replacement)
        if tail:
            ops.append(("equal", len(ref) - tail, len(ref), ()))
        self._diffs[(job_id, proxy_id)] = _StoredDiff(ops=tuple(ops), size_chars=size)
        return size

    # -- reads --------------------------------------------------------------
    def reference(self, job_id: str) -> Optional[str]:
        lines = self._reference.get(job_id)
        return None if lines is None else "".join(lines)

    def restore(self, job_id: str, proxy_id: str) -> str:
        """Reconstruct a proxy's full page from its stored diff."""
        ref = self._reference.get(job_id)
        if ref is None:
            raise KeyError(f"no reference page stored for job {job_id!r}")
        stored = self._diffs.get((job_id, proxy_id))
        if stored is None:
            raise KeyError(f"no diff stored for ({job_id!r}, {proxy_id!r})")
        out: List[str] = []
        for tag, i1, i2, replacement in stored.ops:
            if tag == "equal":
                out.extend(ref[i1:i2])
            else:
                out.extend(replacement)
        return "".join(out)

    # -- accounting -----------------------------------------------------------
    def stored_chars(self) -> int:
        """Total characters actually stored (references + diffs)."""
        return sum(self._reference_size.values()) + sum(
            d.size_chars for d in self._diffs.values()
        )

    def naive_chars(self, pages: Dict[Tuple[str, str], str]) -> int:
        """What storing every page verbatim would have cost."""
        return sum(len(html) for html in pages.values())

    def diff_count(self) -> int:
        return len(self._diffs)
