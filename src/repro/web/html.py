"""A small HTML document model, serializer, and parser.

The Tags Path machinery (Sect. 3.3) treats pages as tag trees: the
add-on records the bottom-up path to the selected price element, and
the Measurement server replays it on pages fetched by proxies.  Stores
build :class:`Element` trees and serialize them; :func:`parse` reads
HTML text back into a tree — so the parser and serializer must
round-trip.

The model is deliberately minimal (no entities, no comments inside
content, no CDATA) because the simulated stores only emit what it
supports; the parser is still defensive because remote pages differ
between fetches.

There is one grammar and one regex.  :func:`split_tags` cuts a page at
its tags; :func:`tokenize` classifies the pieces for :func:`parse`, and
a price check's readers — the add-on's selection, Tags-Path extraction
and DiffStorage — take the same cut and work on the tags alone (the
page's *skeleton*), because the ~35 vantage pages of one check share
their tags and differ in their text.  No price check builds a tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

#: Tags that never take children or a closing tag.
VOID_TAGS = frozenset({"img", "br", "meta", "link", "input", "hr"})

Node = Union["Element", str]


class HTMLParseError(ValueError):
    """Raised when a document cannot be parsed into a tag tree."""


@dataclass
class Element:
    """One HTML element: a tag, its attributes, and child nodes."""

    tag: str
    attrs: Dict[str, str] = field(default_factory=dict)
    children: List[Node] = field(default_factory=list)

    # -- construction helpers -------------------------------------------
    def append(self, child: Node) -> "Element":
        self.children.append(child)
        return self

    def extend(self, children: List[Node]) -> "Element":
        self.children.extend(children)
        return self

    # -- queries ----------------------------------------------------------
    @property
    def classes(self) -> List[str]:
        return self.attrs.get("class", "").split()

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def text(self) -> str:
        """Concatenated text of this subtree."""
        return text_of(self)

    def signature(self) -> str:
        """A layout-identity string: tag plus class attribute.

        Two elements with the same signature play the same structural
        role across page variants; this is what Tags Path entries match
        on.
        """
        return _signature(self.tag, self.attrs)


def _signature(tag: str, attrs: Dict[str, str]) -> str:
    cls = attrs.get("class", "")
    return f"{tag}.{cls}" if cls else tag


def _render_attrs(attrs: Dict[str, str]) -> str:
    if not attrs:
        return ""
    parts = [f'{key}="{value}"' for key, value in attrs.items()]
    return " " + " ".join(parts)


def render(node: Node) -> str:
    """Serialize a node tree to HTML text (with doctype at the root)."""
    text = _render_node(node, 0)
    if isinstance(node, Element) and node.tag == "html":
        return "<!DOCTYPE html>\n" + text
    return text


def _render_node(node: Node, indent: int) -> str:
    pad = "  " * indent
    if isinstance(node, str):
        return f"{pad}{node}"
    open_tag = f"{pad}<{node.tag}{_render_attrs(node.attrs)}>"
    if node.tag in VOID_TAGS:
        return open_tag
    if not node.children:
        return f"{open_tag}</{node.tag}>"
    if len(node.children) == 1 and isinstance(node.children[0], str):
        return f"{open_tag}{node.children[0]}</{node.tag}>"
    inner = "\n".join(_render_node(child, indent + 1) for child in node.children)
    return f"{open_tag}\n{inner}\n{pad}</{node.tag}>"


#: the one regex of the grammar: a tag runs from ``<`` to the next ``>``
_TAG_SPLIT = re.compile(r"(<[^>]*>)").split
_TAG_RE = re.compile(r"^<\s*(/)?\s*([a-zA-Z][a-zA-Z0-9-]*)((?:\s+[^>]*?)?)\s*(/)?\s*>$")
_ATTR_RE = re.compile(r'([a-zA-Z][a-zA-Z0-9_:-]*)\s*=\s*"([^"]*)"')

#: the last page cut: the page, its pieces and its skeleton.  One check
#: hands each vantage page to DiffStorage and then to the Tags-Path
#: extractor (the initiator's page to the add-on first); the later
#: readers find the cut already made.  One page, so nothing to bound.
_last_split: Tuple[str, Tuple[List[str], str]] = ("", ([""], ""))


def split_tags(html: str) -> Tuple[List[str], str]:
    """Cut a page at its tags: ``(parts, skeleton)``.

    ``parts`` is ``[text, tag, text, …, tag, text]``: odd entries are the
    raw tags in document order, even entries the (possibly empty) text
    between them, and ``"".join`` of the list is the page.  The odd
    entries joined are the page's *skeleton*, made once per cut so that
    every reader keys its memo on the same string (hashed once); the
    join is injective because every tag ends at its only ``>``.  Only
    the last entry can hold a ``<`` (one with no ``>`` after it), which
    the grammar drops.  The list is shared with the next caller that
    asks for the same page: read it, never mutate it.
    """
    global _last_split
    page, cut = _last_split  # one read: a serving thread may replace it
    if page != html:
        parts = _TAG_SPLIT(html)
        cut = (parts, "".join(parts[1::2]))
        _last_split = (html, cut)
    return cut


def reuse_cut(html: str, cut: Tuple[List[str], str]) -> None:
    """Make ``cut`` — what :func:`split_tags` returned for ``html``
    earlier — the last cut, so the next ``split_tags(html)`` returns it
    without cutting the page again (a page-cache entry keeps its page's
    cut for every later reader)."""
    global _last_split
    _last_split = (html, cut)


#: kinds of classified token — the first field of a :data:`Token`
T_TEXT, T_OPEN, T_VOID, T_SELF, T_CLOSE = range(5)

#: ``(kind, tag, payload, attrs)``.  The payload is the element's
#: signature for ``T_OPEN`` / ``T_VOID`` (never closed) / ``T_SELF`` (a
#: self-closed non-void tag), and the tuple of stripped non-empty lines
#: for ``T_TEXT``.
Token = Tuple[int, Optional[str], Union[str, Tuple[str, ...], None], Optional[Dict[str, str]]]

#: what doctypes, comments and blank text classify as; never in a stream
SKIP: Token = (-1, None, None, None)

#: Bounds of the raw-token → :data:`Token` memo.  Pages from peer proxies
#: are untrusted, so it is capped in bytes as well as entries: a longer
#: token is classified every time and never stored, and a full memo is
#: cleared (tag and whitespace tokens repeat across the pages of one
#: check, so it refills within a page or two).
TOKEN_MEMO_KEY_MAX = 256
TOKEN_MEMO_MAX = 4096

_token_memo: Dict[str, Token] = {}


def clear_token_memo() -> None:
    """Forget every memoised token classification and the last page cut."""
    global _last_split
    _token_memo.clear()
    _last_split = ("", ([""], ""))


def classify(raw: str) -> Token:
    """Classify one non-empty entry of :func:`split_tags`.

    A malformed tag raises :class:`HTMLParseError`; doctypes, comments
    and blank text are :data:`SKIP`.
    """
    return _token_memo.get(raw) or _classify(raw)


def _classify(raw: str) -> Token:
    """Classify one raw token, memoising it when it is short enough."""
    if raw[0] != "<":
        # One text token may span several rendered lines; split them
        # back into the per-line text nodes the serializer emitted (it
        # joins on "\n" only) so that parse(render(x)) round-trips.
        lines = tuple(filter(None, map(str.strip, raw.split("\n"))))
        token = (T_TEXT, None, lines, None) if lines else SKIP
    elif raw.startswith("<!"):
        token = SKIP  # doctype / comment
    else:
        match = _TAG_RE.match(raw)
        if match is None:
            raise HTMLParseError(f"malformed tag token {raw!r}")
        closing, tag, attr_text, self_closing = match.groups()
        tag = tag.lower()
        if closing:
            token = (T_CLOSE, tag, None, None)
        else:
            attrs = dict(_ATTR_RE.findall(attr_text or ""))
            kind = T_VOID if tag in VOID_TAGS else T_SELF if self_closing else T_OPEN
            token = (kind, tag, _signature(tag, attrs), attrs)
    if len(raw) <= TOKEN_MEMO_KEY_MAX:
        if len(_token_memo) >= TOKEN_MEMO_MAX:
            _token_memo.clear()
        _token_memo[raw] = token
    return token


def tokenize(html: str) -> List[Token]:
    """The document as classified tokens — the one grammar every reader shares.

    :func:`parse` builds an :class:`Element` tree from the stream; the
    Measurement server's Tags-Path extraction classifies the same
    :func:`split_tags` entries without building one.  Doctypes, comments
    and blank text are dropped; a malformed tag raises
    :class:`HTMLParseError` here; balance and root checks are the
    consumer's.
    """
    parts = split_tags(html)[0]
    if "<" in parts[-1]:  # a "<" no ">" follows is dropped, not text
        parts = parts[:-1] + [parts[-1].replace("<", "\n")]
    memo_get = _token_memo.get
    return [
        token
        for raw in parts
        if raw and (token := memo_get(raw) or _classify(raw)) is not SKIP
    ]


def parse(html: str) -> Element:
    """Parse HTML text into an :class:`Element` tree.

    Returns the single root element (conventionally ``<html>``).  The
    parser tolerates a doctype prelude and surrounding whitespace; any
    structural error (unbalanced tags, text outside the root) raises
    :class:`HTMLParseError`.
    """
    root: Optional[Element] = None
    stack: List[Element] = []
    for kind, tag, payload, attrs in tokenize(html):
        if kind == T_TEXT:
            if not stack:
                raise HTMLParseError(
                    f"text outside the document root: {payload[0]!r}"
                )
            stack[-1].children.extend(payload)
        elif kind == T_CLOSE:
            if not stack or stack[-1].tag != tag:
                opened = stack[-1].tag if stack else None
                raise HTMLParseError(
                    f"closing </{tag}> does not match open <{opened}>"
                )
            element = stack.pop()
            if not stack:
                root = element
        else:
            element = Element(tag=tag, attrs=dict(attrs))
            if stack:
                stack[-1].append(element)
            elif root is not None:
                raise HTMLParseError("multiple root elements")
            if kind == T_OPEN:
                stack.append(element)
            elif not stack:
                root = element
    if stack:
        raise HTMLParseError(f"unclosed tag <{stack[-1].tag}>")
    if root is None:
        raise HTMLParseError("empty document")
    return root


def iter_elements(node: Node) -> Iterator[Element]:
    """Depth-first iteration over every element of a subtree."""
    if isinstance(node, Element):
        yield node
        for child in node.children:
            yield from iter_elements(child)


def find_all(
    node: Node,
    tag: Optional[str] = None,
    cls: Optional[str] = None,
) -> List[Element]:
    """All elements matching an optional tag name and/or class."""
    out = []
    for element in iter_elements(node):
        if tag is not None and element.tag != tag:
            continue
        if cls is not None and not element.has_class(cls):
            continue
        out.append(element)
    return out


def text_of(node: Node) -> str:
    """Concatenated text content of a subtree."""
    if isinstance(node, str):
        return node
    return " ".join(
        part
        for part in (text_of(child) for child in node.children)
        if part
    )
