"""Tags Path construction and remote price extraction (Sect. 3.3).

The add-on records the path of HTML tags from the *bottom* of the
document up to the price element the user highlighted — in the paper's
example: ``Bottom, </html>, </body>, </div>, <span class="price">``.
The Measurement server replays that path on pages fetched by other proxy
clients to locate the same price.

Remote pages are never byte-identical: ads rotate, the related-products
strip changes length, and the page may contain several price-looking
elements.  Extraction therefore scores every candidate element whose
signature matches the path's target by the longest-common-subsequence
similarity between its own bottom-up closing-tag path and the recorded
one, and picks the best match.  This captures the paper's remark that
the simplified example "does not capture the complexity involved in
extracting a product price when the HTML code includes multiple product
prices and when the result varies between remote page requests".

Extraction reads the page's *skeleton*, not the page.  A check's ~35
vantage pages are one near-duplicate family: the store fills the same
few text holes differently for every visitor, so no two pages are
byte-identical, yet a job sees about three distinct tag sequences (the
related-products strip varies in length).  Everything the Tags Path is
defined on — the tag stack, the closing-tag signatures, which candidate
wins — depends on the tags alone.  So each page is cut once by
:func:`repro.web.html.split_tags`, and one bounded LRU maps
``(skeleton, path)`` to a *plan*: where the root opens and closes and
which text slots the winning candidate spans.  A miss runs one flat scan
over the tags (the tag stack, the closing-event signatures and integer
spans for the elements matching the path's target, so each candidate's
bottom-up path is two slices), prunes candidates whose shared suffix
already cannot win and strips the common prefix/suffix before any DP —
no :class:`Element` is built.  A hit checks *this* page's text outside
the root and joins the candidate's slots: a handful of C-level calls, no
per-tag Python.  The tree-walking extractor all this replaced lives on
as the test oracle ``tests/oracles/tagspath_legacy.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.obs.metrics import WorkCounts
from repro.web.html import (
    Element,
    HTMLParseError,
    SKIP,
    T_CLOSE,
    T_OPEN,
    T_SELF,
    VOID_TAGS,
    classify,
    clear_token_memo,
    split_tags,
)

#: cap on recorded path length; pages deeper than this keep both ends —
#: the bottom-of-document entries the paper's algorithm starts from AND
#: the entries nearest the target (the discriminative suffix) — and drop
#: the middle.
MAX_PATH_ENTRIES = 400
_PATH_HEAD = MAX_PATH_ENTRIES // 2
_PATH_TAIL = MAX_PATH_ENTRIES - _PATH_HEAD

#: bound on the (skeleton, path) → plan extraction memo
EXTRACTION_MEMO_MAX = 256


class TagsPathError(ValueError):
    """Raised when a Tags Path cannot be built for the selection."""


@dataclass(frozen=True)
class TagsPath:
    """The bottom-up closing-tag path plus the target's signature."""

    entries: Tuple[str, ...]  # closing-tag signatures, bottom-most first
    target: str  # signature of the selected element

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# instrumentation


class ExtractionStats(WorkCounts):
    """Process-wide counts of the extraction path's work (plain int
    adds).  A Measurement server adds what they grew by during each of
    its fan-outs to its own ``sheriff_extract_*`` counters."""

    __slots__ = ("pages_parsed", "memo_hits", "candidates_pruned", "lcs_cells")


#: module-wide stats (the extractor is a pure function shared by every
#: measurement server in the process)
EXTRACTION_STATS = ExtractionStats()


# ---------------------------------------------------------------------------
# path construction


def _truncate(closings: List[str]) -> List[str]:
    """Apply the MAX_PATH_ENTRIES cap: keep both ends, drop the middle."""
    if len(closings) > MAX_PATH_ENTRIES:
        return closings[:_PATH_HEAD] + closings[len(closings) - _PATH_TAIL:]
    return closings


def _event_stream(root: Element) -> List[Tuple[str, Element]]:
    """Flatten the tree into (event, element) pairs in document order."""
    events: List[Tuple[str, Element]] = []

    def walk(element: Element) -> None:
        events.append(("open", element))
        for child in element.children:
            if isinstance(child, Element):
                walk(child)
        if element.tag not in VOID_TAGS:
            events.append(("close", element))

    walk(root)
    return events


def _path_for(root: Element, target: Element) -> Tuple[str, ...]:
    """Closing-tag signatures after target's open tag, bottom-most first."""
    events = _event_stream(root)
    open_index = None
    for i, (kind, element) in enumerate(events):
        if kind == "open" and element is target:
            open_index = i
            break
    if open_index is None:
        raise TagsPathError("selected element is not part of the document")
    closings = [
        element.signature()
        for kind, element in events[open_index + 1:]
        if kind == "close" and element is not target
    ]
    closings.reverse()  # bottom of the document first, like the paper
    return tuple(_truncate(closings))


def build_tags_path(root: Element, target: Element) -> TagsPath:
    """Record the Tags Path for a user-selected element."""
    return TagsPath(entries=_path_for(root, target), target=target.signature())


# ---------------------------------------------------------------------------
# similarity scoring


def _lcs_length(a: Tuple[str, ...], b: Tuple[str, ...]) -> int:
    """Classic O(len(a)·len(b)) longest common subsequence length."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[-1]))
        prev = curr
    return prev[-1]


def _common_suffix(a: Tuple[str, ...], b: Tuple[str, ...]) -> int:
    """Length of the shared tail — the entries *adjacent to the target*."""
    n = 0
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            break
        n += 1
    return n


def _lcs_length_stripped(
    a: Tuple[str, ...], b: Tuple[str, ...], suffix: int
) -> int:
    """LCS length, skipping the already-known common suffix and prefix.

    If the last entries of ``a`` and ``b`` are equal, every maximal
    common subsequence may take them, so
    ``LCS(a, b) = 1 + LCS(a[:-1], b[:-1])`` — applied ``suffix`` times
    (the maximal shared tail), then dually for the shared head of the
    remainders.  Only the middles, where the paths actually differ, pay
    the quadratic DP; their cell count feeds the
    ``sheriff_extract_lcs_cells`` counter.
    """
    a = a[: len(a) - suffix]
    b = b[: len(b) - suffix]
    prefix = 0
    bound = min(len(a), len(b))
    while prefix < bound and a[prefix] == b[prefix]:
        prefix += 1
    mid_a = a[prefix:]
    mid_b = b[prefix:]
    if not mid_a or not mid_b:
        return prefix + suffix
    EXTRACTION_STATS.lcs_cells += len(mid_a) * len(mid_b)
    return prefix + suffix + _lcs_length(mid_a, mid_b)


# ---------------------------------------------------------------------------
# the flat scan

#: one candidate, in closing events and tag positions: ``start`` closes
#: preceded its open tag, its own close is number ``own`` (``None`` for a
#: void tag), it opens at tag ``opened`` and closes at tag ``closed``
#: (equal for a leaf) — so its text is text slots ``opened + 1 … closed``
_Span = Tuple[int, Optional[int], int, int]


def _scan(
    tags: Sequence[str], target: str
) -> Tuple[List[str], List[_Span], Tuple[int, int]]:
    """One pass over a page's tags; no tree is built.

    Returns the signature of every closing event in document order
    (``close_sigs``), one :data:`_Span` per element whose signature
    equals ``target``, in document (pre-)order so the first best-scoring
    candidate wins ties, and the tag positions where the root opens and
    closes.  Raises :class:`HTMLParseError` exactly when :func:`parse`
    would on a page with these tags and no text outside the root — text
    is the page's, not the skeleton's, and is checked per page.
    """
    stack: List[Tuple[str, str]] = []  # (tag, signature) of the open tags
    close_sigs: List[str] = []
    spans: List[Optional[_Span]] = []
    pending: List[Tuple[int, int, int]] = []  # open candidates: slot, start, opened
    root: Optional[Tuple[int, int]] = None  # only read while the stack is empty
    root_open = 0
    for position, raw in enumerate(tags):
        token = classify(raw)
        if token is SKIP:
            continue
        kind, tag, sig, _ = token
        if kind == T_CLOSE:
            if not stack or stack[-1][0] != tag:
                raise HTMLParseError(f"closing </{tag}> does not match the open tag")
            sig = stack.pop()[1]
            if sig == target:
                slot, start, opened = pending.pop()
                spans[slot] = (start, len(close_sigs), opened, position)
            close_sigs.append(sig)
            if not stack:
                root = (root_open, position)
        elif not stack and root is not None:
            raise HTMLParseError("multiple root elements")
        elif kind == T_OPEN:
            if sig == target:
                pending.append((len(spans), len(close_sigs), position))
                spans.append(None)  # keeps its pre-order slot until it closes
            if not stack:
                root_open = position
            stack.append((tag, sig))
        else:  # a leaf: void, or a self-closed tag that still counts as a close
            if not stack:
                root = (position, position)
            own = len(close_sigs) if kind == T_SELF else None
            if sig == target:
                spans.append((len(close_sigs), own, position, position))
            if own is not None:
                close_sigs.append(sig)
    if stack:
        raise HTMLParseError(f"unclosed tag <{stack[-1][0]}>")
    if root is None:
        raise HTMLParseError("empty document")
    return close_sigs, spans, root


def _span_path(close_sigs: List[str], span: _Span) -> Tuple[str, ...]:
    """A candidate's bottom-up closing-tag path, as two slices."""
    start, own = span[0], span[1]
    if own is None:
        closings = close_sigs[start:]
        closings.reverse()
    else:
        closings = close_sigs[own + 1:]
        closings.reverse()
        between = close_sigs[start:own]
        between.reverse()
        closings.extend(between)
    return tuple(_truncate(closings))


def _best_span(
    close_sigs: List[str], spans: List[_Span], recorded: Tuple[str, ...]
) -> Optional[_Span]:
    """Best-scoring candidate for the path (document-order ties win)."""
    if len(spans) <= 1:
        return spans[0] if spans else None
    best: Optional[_Span] = None
    best_score = -1.0
    for span in spans:
        candidate_path = _span_path(close_sigs, span)
        suffix = _common_suffix(recorded, candidate_path)
        # The normalized LCS term is at most 1.0, so a candidate
        # whose shared suffix cannot reach the incumbent strictly
        # loses — and, with candidates visited in document order,
        # skipping it cannot change the first-best tie-break either.
        if suffix + 1.0 <= best_score:
            EXTRACTION_STATS.candidates_pruned += 1
            continue
        longest = max(len(recorded), len(candidate_path))
        if longest == 0:
            score = 1.0
        else:
            lcs = _lcs_length_stripped(recorded, candidate_path, suffix)
            score = suffix + lcs / longest
        if score > best_score:
            best, best_score = span, score
    return best


# ---------------------------------------------------------------------------
# the extraction entry point

#: skeletons longer than this are scanned every time and never memoised,
#: so the memo holds at most EXTRACTION_MEMO_MAX × this many characters
#: of (untrusted) page markup
EXTRACTION_MEMO_PAGE_MAX = 64 * 1024

#: What a skeleton tells about every page that has it, as slice bounds
#: into that page's :func:`split_tags` list: the text before the root
#: opens is ``parts[:head:2]``, the text after it closes
#: ``parts[tail::2]``, the winning candidate's text ``parts[lo:hi:2]``.
#: ``None``: the tags do not parse, or no candidate can hold text.
_Plan = Optional[Tuple[int, int, int, int]]

_MEMO_MISS = object()
_plans: "OrderedDict[Tuple[str, TagsPath], _Plan]" = OrderedDict()


def _text_of(slots: List[str]) -> str:
    """Consecutive text slots as an element's text: their stripped
    non-empty lines joined by a space, like :func:`repro.web.html.text_of`."""
    return " ".join(filter(None, map(str.strip, "\n".join(slots).split("\n"))))


def clear_extraction_memo() -> None:
    """Forget memoized plans and token classifications (benches, tests)."""
    _plans.clear()
    clear_token_memo()


def _make_plan(tags: Sequence[str], path: TagsPath) -> _Plan:
    """Scan and match one skeleton (a memo miss)."""
    try:
        close_sigs, spans, (root_open, root_close) = _scan(tags, path.target)
    except HTMLParseError:
        return None
    span = _best_span(close_sigs, spans, path.entries)
    if span is None or span[2] == span[3]:
        return None
    return 2 * root_open + 1, 2 * root_close + 2, 2 * span[2] + 2, 2 * span[3] + 1


def extract_price_text(html: str, path: TagsPath) -> Optional[str]:
    """Pull the price string out of a fetched page, if locatable.

    Scanning and matching are memoized per tag skeleton and path: the
    vantage pages of one check differ in their text, hardly ever in
    their tags, so all but the first page of a skeleton cost one cut,
    one join, one dict probe and two slices.
    """
    parts = split_tags(html)
    tags = parts[1::2]
    key = ("".join(tags), path)
    plan = _plans.get(key, _MEMO_MISS)
    if plan is _MEMO_MISS:
        EXTRACTION_STATS.pages_parsed += 1
        plan = _make_plan(tags, path)
        if len(key[0]) <= EXTRACTION_MEMO_PAGE_MAX:
            _plans[key] = plan
            if len(_plans) > EXTRACTION_MEMO_MAX:
                _plans.popitem(last=False)
    else:
        _plans.move_to_end(key)
        EXTRACTION_STATS.memo_hits += 1
    if plan is None:
        return None
    head, tail, lo, hi = plan
    # Text outside the root is a parse error, and it is this page's, not
    # the skeleton's.  A "<" there has no ">" after it and is dropped.
    if "".join(parts[:head:2] + parts[tail::2]).replace("<", "").strip():
        return None
    return _text_of(parts[lo:hi:2]) or None
