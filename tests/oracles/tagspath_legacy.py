"""The legacy per-candidate Tags-Path walk (test oracle).

Parses the page into a tree, re-flattens the whole document for every
candidate element and runs the full LCS DP — O(document) per candidate
where the production flat scan of :mod:`repro.core.tagspath` takes two
list slices and builds no tree.  The extraction equivalence suites
assert the production extractor returns the same text on every page.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.tagspath import TagsPath, _common_suffix, _lcs_length, _path_for
from repro.web.html import Element, HTMLParseError, iter_elements, parse


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
