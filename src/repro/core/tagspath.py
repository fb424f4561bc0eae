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
per-tag Python.

The add-on records the path the same way (:func:`select_tags_path`):
one scan per new skeleton hands its elements to the user's simulated
cursor, and the picked element's path is the same two slices a
candidate's is.  The tree-walking extractor and selection all this
replaced live on as the test oracle ``tests/oracles/tagspath_legacy.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs.metrics import WorkCounts
from repro.web.html import (
    HTMLParseError,
    SKIP,
    T_CLOSE,
    T_OPEN,
    T_SELF,
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

#: bound on each skeleton memo: ``(skeleton, path)`` → extraction plan
#: and ``(skeleton, selector)`` → the add-on's selection
EXTRACTION_MEMO_MAX = 256


@dataclass(frozen=True)
class TagsPath:
    """The bottom-up closing-tag path plus the target's signature."""

    entries: Tuple[str, ...]  # closing-tag signatures, bottom-most first
    target: str  # signature of the selected element


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
    tags: Sequence[str], target: Optional[str]
) -> Tuple[List[str], List[_Span], Tuple[int, int]]:
    """One pass over a page's tags; no tree is built.

    Returns the signature of every closing event in document order
    (``close_sigs``), one :data:`_Span` per element whose signature
    equals ``target`` (per element when ``target`` is ``None``), in
    document (pre-)order so the first best-scoring candidate wins ties,
    and the tag positions where the root opens and closes.  Raises
    :class:`HTMLParseError` exactly when :func:`parse` would on a page
    with these tags and no text outside the root — text is the page's,
    not the skeleton's, and is checked per page.
    """
    every = target is None
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
            if every or sig == target:
                slot, start, opened = pending.pop()
                spans[slot] = (start, len(close_sigs), opened, position)
            close_sigs.append(sig)
            if not stack:
                root = (root_open, position)
        elif not stack and root is not None:
            raise HTMLParseError("multiple root elements")
        elif kind == T_OPEN:
            if every or sig == target:
                pending.append((len(spans), len(close_sigs), position))
                spans.append(None)  # keeps its pre-order slot until it closes
            if not stack:
                root_open = position
            stack.append((tag, sig))
        else:  # a leaf: void, or a self-closed tag that still counts as a close
            if not stack:
                root = (position, position)
            own = len(close_sigs) if kind == T_SELF else None
            if every or sig == target:
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
#: so each memo holds at most EXTRACTION_MEMO_MAX × this many characters
#: of (untrusted) page markup
EXTRACTION_MEMO_PAGE_MAX = 64 * 1024

#: What a skeleton tells about every page that has it, as slice bounds
#: into that page's :func:`split_tags` parts: the text before the root
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


def _slots(root: Tuple[int, int], span: _Span) -> Tuple[int, int, int, int]:
    """The root's and one element's tag positions as :data:`_Plan` bounds."""
    return 2 * root[0] + 1, 2 * root[1] + 2, 2 * span[2] + 2, 2 * span[3] + 1


def _text_outside_root(parts: List[str], head: int, tail: int) -> bool:
    """Text outside the root is a parse error, and it is this page's, not
    the skeleton's.  A "<" there has no ">" after it and is dropped."""
    return bool("".join(parts[:head:2] + parts[tail::2]).replace("<", "").strip())


def _remember(memo: OrderedDict, key: tuple, value) -> None:
    """Store a skeleton's entry, unless the skeleton is oversized; evict LRU."""
    if len(key[0]) <= EXTRACTION_MEMO_PAGE_MAX:
        memo[key] = value
        if len(memo) > EXTRACTION_MEMO_MAX:
            memo.popitem(last=False)


def clear_extraction_memo() -> None:
    """Forget memoized plans, selections and token classifications
    (benches, tests)."""
    _plans.clear()
    _selections.clear()
    clear_token_memo()


def _make_plan(tags: Sequence[str], path: TagsPath) -> _Plan:
    """Scan and match one skeleton (a memo miss)."""
    try:
        close_sigs, spans, root = _scan(tags, path.target)
    except HTMLParseError:
        return None
    span = _best_span(close_sigs, spans, path.entries)
    if span is None or span[2] == span[3]:
        return None
    return _slots(root, span)


def extract_price_text(html: str, path: TagsPath) -> Optional[str]:
    """Pull the price string out of a fetched page, if locatable.

    Scanning and matching are memoized per tag skeleton and path: the
    vantage pages of one check differ in their text, hardly ever in
    their tags, so all but the first page of a skeleton cost one cut,
    one join, one dict probe and two slices.
    """
    parts, skeleton = split_tags(html)
    key = (skeleton, path)
    plan = _plans.get(key, _MEMO_MISS)
    if plan is _MEMO_MISS:
        EXTRACTION_STATS.pages_parsed += 1
        plan = _make_plan(parts[1::2], path)
        _remember(_plans, key, plan)
    else:
        _plans.move_to_end(key)
        EXTRACTION_STATS.memo_hits += 1
    if plan is None:
        return None
    head, tail, lo, hi = plan
    if _text_outside_root(parts, head, tail):
        return None
    return _text_of(parts[lo:hi:2]) or None


# ---------------------------------------------------------------------------
# the add-on's selection


class PageElement(NamedTuple):
    """One element of a page as a selection sees it: its tag, its
    classes, and the tag positions where it opens and closes (equal for
    a leaf), so ``a`` holds ``b`` when ``a.opened <= b.opened <= a.closed``."""

    tag: str
    classes: Tuple[str, ...]
    opened: int
    closed: int


#: The user's cursor: given a page's elements in document order, the
#: root first, the one the user highlights (or it raises).  It reads the
#: elements alone, so its pick is a function of the page's skeleton.
Selector = Callable[[List[PageElement]], PageElement]

#: ``(skeleton, selector)`` → the picked element's Tags Path and its
#: :data:`_Plan` bounds
_selections: "OrderedDict[Tuple[str, Selector], Tuple[TagsPath, int, int, int, int]]" = (
    OrderedDict()
)


def _make_selection(
    parts: List[str], select: Selector
) -> Tuple[TagsPath, int, int, int, int]:
    """Scan one skeleton, refuse this page's text outside the root, and
    record the path to the element ``select`` picks (a memo miss)."""
    tags = parts[1::2]
    close_sigs, spans, root = _scan(tags, None)
    head, tail, _, _ = _slots(root, spans[0])  # the root comes first
    if _text_outside_root(parts, head, tail):
        raise HTMLParseError("text outside the document root")
    tokens = [classify(tags[span[2]]) for span in spans]
    elements = [
        PageElement(tag, tuple(attrs.get("class", "").split()), span[2], span[3])
        for (_, tag, _, attrs), span in zip(tokens, spans)
    ]
    index = elements.index(select(elements))
    path = TagsPath(entries=_span_path(close_sigs, spans[index]), target=tokens[index][2])
    return (path, *_slots(root, spans[index]))


def select_tags_path(html: str, select: Selector) -> Tuple[TagsPath, str]:
    """The Tags Path and text of the element ``select`` picks on a page.

    The add-on's half of Sect. 3.3, on the same cut and with the same
    path construction as the extraction it feeds: no :class:`Element`
    is built.  The pick is memoized per skeleton and selector, so a page
    whose tags were seen before costs one cut, one join, one dict probe
    and its text.  Raises :class:`HTMLParseError` where :func:`parse`
    would, then whatever ``select`` raises.
    """
    parts, skeleton = split_tags(html)
    key = (skeleton, select)
    selection = _selections.get(key)
    if selection is None:
        selection = _make_selection(parts, select)
        _remember(_selections, key, selection)
    else:
        _selections.move_to_end(key)
        if _text_outside_root(parts, selection[1], selection[2]):
            raise HTMLParseError("text outside the document root")
    path, _, _, lo, hi = selection
    return path, _text_of(parts[lo:hi:2])
