"""The legacy per-candidate Tags-Path walk (test oracle).

Parses the page into a tree, walks it for the path of any of its
elements (:func:`build_tags_path`), re-flattens the whole document for
every candidate element and runs the full LCS DP — O(document) per
candidate where the production flat scan of :mod:`repro.core.tagspath`
takes two list slices and builds no tree.  The extraction equivalence suites
assert the production extractor returns the same text on every page.

The add-on's selection is here too, on the parsed tree: the production
add-on picks the same element on the page's cut
(:func:`repro.core.tagspath.select_tags_path`), and the selection suites
assert the same path, text and exception on every page.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.errors import PriceSelectionError
from repro.core.tagspath import TagsPath, _common_suffix, _lcs_length, _truncate
from repro.web.html import (
    VOID_TAGS,
    Element,
    HTMLParseError,
    find_all,
    iter_elements,
    parse,
)
from repro.web.store import PRICE_CLASSES


class TagsPathError(ValueError):
    """Raised when a Tags Path cannot be built for the selection."""


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
    """Record the Tags Path for an element of a tree."""
    return TagsPath(entries=_path_for(root, target), target=target.signature())


def _similarity(recorded: Tuple[str, ...], candidate: Tuple[str, ...]) -> float:
    """Score a candidate's path against the recorded one.

    The entries nearest the target (the path's *suffix*, since paths run
    bottom-of-document → target) encode the element's local context —
    e.g. ``…, div.product, div.description`` for the real product price
    versus ``…, div.item`` for a related-products decoy.  Those entries
    are the discriminative ones, so the shared suffix dominates the
    score; the normalized LCS over the full path breaks ties among
    candidates with equal local context.
    """
    longest = max(len(recorded), len(candidate))
    if longest == 0:
        return 1.0
    lcs = _lcs_length(recorded, candidate) / longest
    suffix = _common_suffix(recorded, candidate)
    return suffix + lcs


def extract_price_element(root: Element, path: TagsPath) -> Optional[Element]:
    """Best-scoring candidate for the path (document-order ties win)."""
    candidates = [e for e in iter_elements(root) if e.signature() == path.target]
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates[0]
    best, best_score = None, -1.0
    for candidate in candidates:
        score = _similarity(path.entries, _path_for(root, candidate))
        if score > best_score:
            best, best_score = candidate, score
    return best


def extract_price_text(html: str, path: TagsPath) -> Optional[str]:
    """Parse a page and pull out the price string, if locatable (no memo)."""
    try:
        root = parse(html)
    except HTMLParseError:
        return None
    element = extract_price_element(root, path)
    if element is None:
        return None
    text = element.text().strip()
    return text or None


def select_price_element(root: Element) -> Element:
    """The user's cursor on the tree: the first price-classed span within
    a ``product`` element, trying the price classes in order; with no
    product block, anywhere on the page."""
    for scope in find_all(root, cls="product") or [root]:
        for cls in PRICE_CLASSES:
            spans = find_all(scope, tag="span", cls=cls)
            if spans:
                return spans[0]
    raise PriceSelectionError("no price element found on the page")


def build_selection(html: str) -> Tuple[TagsPath, str]:
    """Parse the page, select the price, record its path (no memo)."""
    root = parse(html)
    element = select_price_element(root)
    return build_tags_path(root, element), element.text().strip()
