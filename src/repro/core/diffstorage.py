"""DiffStorage: store one full page per job, diffs for the rest.

App. 10.5: the Measurement server has "the DiffStorage module to
minimize the size of HTML code we store in the RDBMS by saving the full
HTML page code reported by the user's add-on and just saving the
difference for the HTML code responses from the IPCs and PPCs."

A job's vantage pages are one near-duplicate family: the same tags
around differently filled text.  Each page is cut once by
:func:`repro.web.html.split_tags` into *units* — a text slot and the tag
that follows it, the last unit being the text after the last tag — and
its tags are aligned to the reference's once per ``(job, skeleton)``:
common head and tail, ``SequenceMatcher`` over what is left of the two
*tag lists*.  Every later page of that skeleton costs one C-level
comparison of its text slots with the reference's along the aligned
runs.  Only the slots that differ are stored, units the alignment left
out verbatim, and a slot that spans several lines as a line diff
against the slot it replaces — so a page without tags costs what a
line diff of the whole page costs.  Reconstruction is exact, and the
ablation benchmark reports the saving.

The reference is kept as its page text.  Its cut and the alignments
live only while its job is the *open* one (the job stored to last):
jobs may interleave, and losing that state costs a re-alignment, never
correctness — a stored diff names reference units, which
``split_tags`` gives again whenever they are needed.

A page the caller knows to be byte-identical to one stored before — a
page-cache hit, the same IPC page read by several checks of a burst —
is stored as an *alias* of that earlier diff (:meth:`DiffStorage.
store_alias`): no cut, no alignment, no diff against its own job's
reference.  An alias holds the stored record and the reference it was
made against, never another alias, so ``restore`` gives the exact page
even if the target's name is stored again later.  It costs 0 stored
chars; ``naive_chars_seen`` still counts the page.

A stored page is one immutable in-process record: ``marshal.dumps`` of
its size and the runs, gaps and substitutions it restores from, one
``bytes`` object instead of a tree of tuples and strings.  ``marshal``
is a C codec that round-trips tuples and lone surrogates; a record is
never loaded from outside the process.
"""

from __future__ import annotations

import difflib
import marshal
from itertools import compress
from operator import ne
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.web.html import split_tags

#: Above this many cells (``len(a) * len(b)`` after the common head and
#: tail) two sequences are not matched and the middle is stored
#: verbatim: the matcher is quadratic on repeated entries (2 000 equal
#: lines cost it a second), and pages come from untrusted peers.
ALIGN_CELLS_MAX = 250_000

#: aligned stretches ``(a index, b index, length)``, in order
_Blocks = List[Tuple[int, int, int]]

#: a multi-line slot against the slot it replaces: ``(lo, hi)`` copies
#: those lines of the old slot, a string is inserted as it is
_LineOps = Tuple[Union[Tuple[int, int], str], ...]


def _mismatch(xs, ys, limit: int) -> int:
    """The first ``i < limit`` with ``xs[i] != ys[i]``, else ``limit``."""
    return next(compress(range(limit), map(ne, xs, ys)), limit)


def _matching_blocks(a: Sequence[str], b: Sequence[str]) -> _Blocks:
    """Align ``a`` to ``b``: common head, matcher over the middle, common tail."""
    shortest = min(len(a), len(b))
    head = _mismatch(a, b, shortest)
    tail = _mismatch(reversed(a), reversed(b), shortest - head)
    blocks: _Blocks = [(0, 0, head)] if head else []
    mid_a = a[head:len(a) - tail]
    mid_b = b[head:len(b) - tail]
    if mid_a and mid_b and len(mid_a) * len(mid_b) <= ALIGN_CELLS_MAX:
        matcher = difflib.SequenceMatcher(a=mid_a, b=mid_b, autojunk=False)
        blocks.extend(
            (head + i, head + j, n) for i, j, n in matcher.get_matching_blocks() if n
        )
    if tail:
        blocks.append((len(a) - tail, len(b) - tail, tail))
    return blocks


def _slot_diff(old: str, new: str) -> Tuple[Union[str, _LineOps], int]:
    """What to store for a slot that differs, and its size in chars."""
    old_lines = old.splitlines(keepends=True)
    new_lines = new.splitlines(keepends=True)
    if len(old_lines) > 1 or len(new_lines) > 1:
        ops: List[Union[Tuple[int, int], str]] = []
        size = done = 0
        for i, j, n in _matching_blocks(old_lines, new_lines):
            if j > done:
                ops.append("".join(new_lines[done:j]))
                size += len(ops[-1])
            ops.append((i, i + n))
            done = j + n
        if done:  # some line is shared
            if done < len(new_lines):
                ops.append("".join(new_lines[done:]))
                size += len(ops[-1])
            return tuple(ops), size
    return new, len(new)


class _OpenJob:
    """The reference being diffed against, cut once, and its alignments."""

    __slots__ = ("job_id", "tags", "texts", "alignments")

    def __init__(self, job_id: str, reference: str) -> None:
        parts = split_tags(reference)[0]
        self.job_id = job_id
        #: a closing sentinel pairs the text after the last tag with the
        #: other page's; no tag is the empty string
        self.tags = parts[1::2] + [""]
        self.texts = parts[::2]
        #: skeleton → ``(runs to store, [(reference unit, page unit,
        #: length, the reference's texts there)])``
        self.alignments: Dict[str, Tuple[tuple, list]] = {}

    def align(self, skeleton: str, parts: List[str]) -> Tuple[tuple, list]:
        alignment = self.alignments.get(skeleton)
        if alignment is None:
            blocks = _matching_blocks(self.tags, parts[1::2] + [""])
            alignment = self.alignments[skeleton] = (
                tuple((i, n) for i, _, n in blocks),
                [(i, j, n, self.texts[i:i + n]) for i, j, n in blocks],
            )
        return alignment


class DiffStorage:
    """Per-job reference page plus per-proxy diffs."""

    def __init__(self) -> None:
        self._reference: Dict[str, str] = {}
        #: ``(job, proxy)`` → ``marshal.dumps((size, runs, gaps, subs))``
        self._diffs: Dict[Tuple[str, str], bytes] = {}
        #: ``(job, proxy)`` → ``(reference, record)`` it restores from;
        #: a name is in ``_diffs`` or here, never in both
        self._aliases: Dict[Tuple[str, str], Tuple[str, bytes]] = {}
        self._open: Optional[_OpenJob] = None
        #: the references' lengths plus every record's size
        self._stored_chars = 0
        #: what storing every page verbatim would have cost (ablation)
        self.naive_chars_seen = 0

    # -- writes ----------------------------------------------------------
    def store_reference(self, job_id: str, html: str) -> None:
        """Store the initiator's page verbatim (the diff baseline)."""
        self._stored_chars += len(html) - len(self._reference.get(job_id, ""))
        self._reference[job_id] = html
        self._open = _OpenJob(job_id, html)
        self.naive_chars_seen += len(html)

    def store_response(self, job_id: str, proxy_id: str, html: str) -> int:
        """Store a proxy's page as a diff; returns the stored size (chars)."""
        if job_id not in self._reference:
            raise KeyError(f"no reference page stored for job {job_id!r}")
        self.naive_chars_seen += len(html)
        job = self._open
        if job is None or job.job_id != job_id:
            # cut the reference before the page: the extractor asks for
            # this page's cut next
            job = self._open = _OpenJob(job_id, self._reference[job_id])
        parts, skeleton = split_tags(html)
        texts = parts[::2]
        runs, aligned = job.align(skeleton, parts)
        gaps: List[str] = []
        subs: List[Tuple[int, Union[str, _LineOps]]] = []
        size = end = 0
        for ref_lo, lo, n, ref_texts in aligned:
            gaps.append("".join(parts[2 * end:2 * lo]))
            size += len(gaps[-1])
            for k in compress(range(n), map(ne, ref_texts, texts[lo:lo + n])):
                stored, cost = _slot_diff(ref_texts[k], texts[lo + k])
                subs.append((ref_lo + k, stored))
                size += cost
            end = lo + n
        key = (job_id, proxy_id)
        self._forget(key)
        self._diffs[key] = marshal.dumps((size, runs, gaps, subs))
        self._stored_chars += size
        return size

    def store_alias(
        self, job_id: str, proxy_id: str, html: str, target: Tuple[str, str]
    ) -> None:
        """Store a proxy's page as the page already stored for ``target``.

        The caller vouches that ``html`` is byte-identical to the page
        stored under ``target = (job, proxy)``; an alias target resolves
        to the diff it aliases.  Raises :class:`KeyError` when this job
        has no reference or ``target`` is not stored here.
        """
        if job_id not in self._reference:
            raise KeyError(f"no reference page stored for job {job_id!r}")
        alias = self._aliases.get(target)
        if alias is None:
            record = self._diffs.get(target)
            if record is None:
                raise KeyError(f"no diff stored for {target!r}")
            alias = (self._reference[target[0]], record)
        self.naive_chars_seen += len(html)
        key = (job_id, proxy_id)
        if self._diffs.get(key) is alias[1]:
            return  # a re-run job reading its own stored page
        self._forget(key)
        self._aliases[key] = alias

    def _forget(self, key: Tuple[str, str]) -> None:
        """Drop what ``key`` names; a diff's size leaves the total."""
        self._aliases.pop(key, None)
        record = self._diffs.pop(key, None)
        if record is not None:
            self._stored_chars -= marshal.loads(record)[0]

    # -- reads --------------------------------------------------------------

    def restore(self, job_id: str, proxy_id: str) -> str:
        """Reconstruct a proxy's full page from its stored diff."""
        ref = self._reference.get(job_id)
        if ref is None:
            raise KeyError(f"no reference page stored for job {job_id!r}")
        alias = self._aliases.get((job_id, proxy_id))
        if alias is not None:
            ref, record = alias
        else:
            record = self._diffs.get((job_id, proxy_id))
            if record is None:
                raise KeyError(f"no diff stored for ({job_id!r}, {proxy_id!r})")
        _, runs, gaps, subs = marshal.loads(record)
        parts = list(split_tags(ref)[0])
        for slot, sub in subs:
            if not isinstance(sub, str):
                old_lines = parts[2 * slot].splitlines(keepends=True)
                sub = "".join(
                    op if isinstance(op, str) else "".join(old_lines[op[0]:op[1]])
                    for op in sub
                )
            parts[2 * slot] = sub
        out: List[str] = []
        for gap, (ref_lo, n) in zip(gaps, runs):
            out.append(gap)
            out.extend(parts[2 * ref_lo:2 * (ref_lo + n)])
        return "".join(out)

    # -- accounting -----------------------------------------------------------
    def stored_chars(self) -> int:
        """Total characters actually stored (references + diffs; an
        alias stores none)."""
        return self._stored_chars
