"""The line-level DiffStorage (size oracle).

What ``repro.core.diffstorage`` did before it aligned tag skeletons:
every page is split into lines and diffed against the reference's lines
with ``SequenceMatcher`` — after the common head and tail, with no bound
on the matcher's work.  The page-family suite holds the production
store to it: never larger on a store's pages, equal on pages without
tags.
"""

from __future__ import annotations

import difflib
from typing import Dict, List, Tuple

# an opcode: (tag, ref_lo, ref_hi, replacement_lines)
_Op = Tuple[str, int, int, Tuple[str, ...]]


class LineDiffStorage:
    """Per-job reference page plus per-proxy line diffs."""

    def __init__(self) -> None:
        self._reference: Dict[str, List[str]] = {}
        self._diffs: Dict[Tuple[str, str], Tuple[_Op, ...]] = {}

    def store_reference(self, job_id: str, html: str) -> None:
        self._reference[job_id] = html.splitlines(keepends=True)

    def store_response(self, job_id: str, proxy_id: str, html: str) -> int:
        """Store a proxy's page as a diff; returns the stored size (chars)."""
        ref = self._reference[job_id]
        new = html.splitlines(keepends=True)
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
        self._diffs[(job_id, proxy_id)] = tuple(ops)
        return size

    def restore(self, job_id: str, proxy_id: str) -> str:
        ref = self._reference[job_id]
        out: List[str] = []
        for tag, i1, i2, replacement in self._diffs[(job_id, proxy_id)]:
            out.extend(ref[i1:i2] if tag == "equal" else replacement)
        return "".join(out)
