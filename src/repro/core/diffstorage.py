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

Only the *open* job — the job stored to last — is held as live
objects: its reference, its records and its aliases, and, while it
stays open, the reference's cut and alignments.  Every other job is
*sealed*: one immutable ``bytes``, ``zlib`` over ``marshal.dumps((
reference, records, aliases))``, which packs a job's ~35 records and its
reference page together.  The close step is the next job's
:meth:`DiffStorage.store_reference`: a check's fan-out stores all of its
pages inside one ``MeasurementServer._execute``, which opens with its
job's reference, so a job is written whole before the next one opens.
A write to a sealed job (a failover re-run, or jobs that interleave)
reopens it and seals the job that was open: interleaving costs a
reseal and a re-alignment, never correctness — a stored diff names
reference units, which ``split_tags`` gives again whenever they are
needed.  Reads of a sealed job go through a one-job read cache, so the
readers of one sealed job pay one decompress between them.  A job's
reference is stored once: storing another page as its reference raises
:class:`ValueError`, since its records name units of the first.

A page the caller knows to be byte-identical to one stored before — a
page-cache hit, the same IPC page read by several checks of a burst —
is stored as an *alias* of that earlier diff (:meth:`DiffStorage.
store_alias`): no cut, no alignment, no diff against its own job's
reference.  An alias holds, in its own job, a copy of the stored record
and of the reference it was made against, never another alias, so every
sealed job restores on its own and ``restore`` gives the exact page even
if the target's name is stored again later.  It costs 0 stored chars;
``naive_chars_seen`` still counts the page.

A stored page is one immutable in-process record: ``marshal.dumps`` of
its size, the runs, gaps and substitutions it restores from, and the
number of the write that made it, one ``bytes`` object instead of a tree
of tuples and strings; the number tells a page's own record from an
equal one stored under another name.  ``marshal`` is a C codec that
round-trips tuples and lone surrogates; neither a record nor a sealed
job is ever loaded from outside the process.
"""

from __future__ import annotations

import difflib
import marshal
import zlib
from itertools import compress
from operator import ne
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.web.html import split_tags

#: Above this many cells (``len(a) * len(b)`` after the common head and
#: tail) two sequences are not matched and the middle is stored
#: verbatim: the matcher is quadratic on repeated entries (2 000 equal
#: lines cost it a second), and pages come from untrusted peers.
ALIGN_CELLS_MAX = 250_000

#: the ``zlib`` level a job is sealed at.  On one core of a shared
#: 2-vCPU VM, level 1 packs a ``live_mix`` job's ~9.9 KB of ``marshal``
#: into ~2.1 KB in ~95 µs; level 3 packs ~10 % tighter for ~5 % more
#: time on a ``burst_shared`` job, level 6 ~17 % tighter in twice the time
SEAL_LEVEL = 1

#: aligned stretches ``(a index, b index, length)``, in order
_Blocks = List[Tuple[int, int, int]]

#: a multi-line slot against the slot it replaces: ``(lo, hi)`` copies
#: those lines of the old slot, a string is inserted as it is
_LineOps = Tuple[Union[Tuple[int, int], str], ...]

#: an alias: the reference and the record it restores from
_Alias = Tuple[str, bytes]

#: what a job stores: its reference, proxy → record, proxy → alias
_StoredJob = Tuple[str, Dict[str, bytes], Dict[str, _Alias]]


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
    """The job stored to last, as live objects, with its reference's cut
    and alignments once something asked for them."""

    __slots__ = ("job_id", "reference", "diffs", "aliases", "tags", "texts", "alignments")

    def __init__(
        self, job_id: str, reference: str, diffs: Dict[str, bytes],
        aliases: Dict[str, _Alias],
    ) -> None:
        self.job_id = job_id
        self.reference = reference
        #: proxy → ``marshal.dumps((size, runs, gaps, subs, write))``
        self.diffs = diffs
        #: proxy → ``(reference, record)`` it restores from; a proxy is
        #: in ``diffs`` or here, never in both
        self.aliases = aliases
        self.tags: Optional[List[str]] = None
        self.texts: List[str] = []
        #: skeleton → ``(runs to store, [(reference unit, page unit,
        #: length, the reference's texts there)])``
        self.alignments: Dict[str, Tuple[tuple, list]] = {}

    def cut(self) -> None:
        """Cut the reference afresh and forget the alignments."""
        parts = split_tags(self.reference)[0]
        #: a closing sentinel pairs the text after the last tag with the
        #: other page's; no tag is the empty string
        self.tags = parts[1::2] + [""]
        self.texts = parts[::2]
        self.alignments = {}

    def align(self, skeleton: str, parts: List[str]) -> Tuple[tuple, list]:
        alignment = self.alignments.get(skeleton)
        if alignment is None:
            blocks = _matching_blocks(self.tags, parts[1::2] + [""])
            alignment = self.alignments[skeleton] = (
                tuple((i, n) for i, _, n in blocks),
                [(i, j, n, self.texts[i:i + n]) for i, j, n in blocks],
            )
        return alignment

    def forget(self, proxy_id: str) -> int:
        """Drop what ``proxy_id`` names; the size of a diff it held."""
        self.aliases.pop(proxy_id, None)
        record = self.diffs.pop(proxy_id, None)
        return 0 if record is None else marshal.loads(record)[0]

    def seal(self) -> bytes:
        return zlib.compress(
            marshal.dumps((self.reference, self.diffs, self.aliases)), SEAL_LEVEL
        )


class DiffStorage:
    """Per-job reference page plus per-proxy diffs."""

    def __init__(self) -> None:
        #: the job stored to last, the one held as live objects
        self._open: Optional[_OpenJob] = None
        #: every other job: ``_OpenJob.seal()`` of it
        self._sealed: Dict[str, bytes] = {}
        #: the sealed job read last, decoded: ``(job, stored job)``
        self._read_cache: Optional[Tuple[str, _StoredJob]] = None
        #: the number of the last ``store_response``
        self._writes = 0
        #: the references' lengths plus every record's size
        self._stored_chars = 0
        #: what storing every page verbatim would have cost (ablation)
        self.naive_chars_seen = 0

    # -- jobs -------------------------------------------------------------
    def _stored(self, job_id: str) -> Optional[_StoredJob]:
        """What ``job_id`` stores, open or sealed; None for no such job."""
        job = self._open
        if job is not None and job.job_id == job_id:
            return job.reference, job.diffs, job.aliases
        cached = self._read_cache
        if cached is None or cached[0] != job_id:
            sealed = self._sealed.get(job_id)
            if sealed is None:
                return None
            cached = self._read_cache = (job_id, marshal.loads(zlib.decompress(sealed)))
        return cached[1]

    def _reopen(self, job_id: str) -> _OpenJob:
        """Make a stored job the open one, sealing the job that was."""
        job = self._open
        if job is not None and job.job_id == job_id:
            return job
        stored = self._stored(job_id)
        if stored is None:
            raise KeyError(f"no reference page stored for job {job_id!r}")
        self._read_cache = None  # its dicts are the open job's now
        del self._sealed[job_id]
        return self._open_next(_OpenJob(job_id, *stored))

    def _open_next(self, job: _OpenJob) -> _OpenJob:
        """Seal the open job and make ``job`` the open one."""
        if self._open is not None:
            self._sealed[self._open.job_id] = self._open.seal()
        self._open = job
        return job

    # -- writes ----------------------------------------------------------
    def store_reference(self, job_id: str, html: str) -> None:
        """Store the initiator's page verbatim (the diff baseline).

        Storing a job's reference again is a no-op but for
        ``naive_chars_seen``; another page raises :class:`ValueError`
        and stores nothing.
        """
        stored = self._stored(job_id)
        if stored is None:
            job = self._open_next(_OpenJob(job_id, html, {}, {}))
            self._stored_chars += len(html)
        elif stored[0] != html:
            raise ValueError(f"job {job_id!r} has another reference page stored")
        else:
            job = self._reopen(job_id)
        job.cut()
        self.naive_chars_seen += len(html)

    def store_response(self, job_id: str, proxy_id: str, html: str) -> int:
        """Store a proxy's page as a diff; returns the stored size (chars)."""
        job = self._reopen(job_id)
        self.naive_chars_seen += len(html)
        if job.tags is None:
            # cut the reference before the page: the extractor asks for
            # this page's cut next
            job.cut()
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
        self._stored_chars += size - job.forget(proxy_id)
        self._writes += 1
        job.diffs[proxy_id] = marshal.dumps((size, runs, gaps, subs, self._writes))
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
        stored = self._stored(target[0])
        if stored is None:
            raise KeyError(f"no diff stored for {target!r}")
        reference, diffs, aliases = stored
        alias = aliases.get(target[1])
        if alias is None:
            record = diffs.get(target[1])
            if record is None:
                raise KeyError(f"no diff stored for {target!r}")
            alias = (reference, record)
        job = self._reopen(job_id)
        self.naive_chars_seen += len(html)
        if job.diffs.get(proxy_id) == alias[1]:
            return  # a re-run job reading its own stored page
        self._stored_chars -= job.forget(proxy_id)
        job.aliases[proxy_id] = alias

    # -- reads --------------------------------------------------------------

    def restore(self, job_id: str, proxy_id: str) -> str:
        """Reconstruct a proxy's full page from its stored diff."""
        stored = self._stored(job_id)
        if stored is None:
            raise KeyError(f"no reference page stored for job {job_id!r}")
        ref, diffs, aliases = stored
        alias = aliases.get(proxy_id)
        if alias is not None:
            ref, record = alias
        else:
            record = diffs.get(proxy_id)
            if record is None:
                raise KeyError(f"no diff stored for ({job_id!r}, {proxy_id!r})")
        _, runs, gaps, subs, _ = marshal.loads(record)
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
