"""Tests for the HTML model, serializer, and parser."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.web.html import (
    Element,
    HTMLParseError,
    find_all,
    iter_elements,
    parse,
    render,
    text_of,
)


def sample_doc():
    return Element("html", children=[
        Element("head", children=[Element("title", children=["Hi there"])]),
        Element("body", children=[
            "This is a simple web page",
            Element("div", {"class": "product"}, [
                "Here is the product image",
                Element("img", {"src": "product.jpg", "alt": "Product View"}),
                Element("span", {"class": "price"}, ["$10.00"]),
            ]),
        ]),
    ])


class TestRender:
    def test_doctype_at_root(self):
        html = render(sample_doc())
        assert html.startswith("<!DOCTYPE html>")

    def test_contains_price_span(self):
        html = render(sample_doc())
        assert '<span class="price">$10.00</span>' in html

    def test_void_tag_not_closed(self):
        html = render(sample_doc())
        assert "</img>" not in html
        assert "<img" in html


class TestParse:
    def test_roundtrip_structure(self):
        doc = sample_doc()
        reparsed = parse(render(doc))
        assert render(reparsed) == render(doc)

    def test_attributes_preserved(self):
        doc = parse(render(sample_doc()))
        spans = find_all(doc, tag="span", cls="price")
        assert len(spans) == 1
        assert spans[0].attrs["class"] == "price"

    def test_mismatched_close_rejected(self):
        with pytest.raises(HTMLParseError):
            parse("<html><body></html></body>")

    def test_unclosed_tag_rejected(self):
        with pytest.raises(HTMLParseError):
            parse("<html><body>")

    def test_empty_doc_rejected(self):
        with pytest.raises(HTMLParseError):
            parse("   ")

    def test_text_outside_root_rejected(self):
        with pytest.raises(HTMLParseError):
            parse("hello <html></html>")

    def test_multiple_roots_rejected(self):
        with pytest.raises(HTMLParseError):
            parse("<html></html><html></html>")

    def test_doctype_skipped(self):
        doc = parse("<!DOCTYPE html><html><body>x</body></html>")
        assert doc.tag == "html"


class TestQueries:
    def test_find_all_by_tag(self):
        doc = sample_doc()
        assert len(find_all(doc, tag="span")) == 1

    def test_find_all_by_class(self):
        doc = sample_doc()
        assert len(find_all(doc, cls="product")) == 1

    def test_iter_elements_counts(self):
        names = [e.tag for e in iter_elements(sample_doc())]
        assert names == ["html", "head", "title", "body", "div", "img", "span"]

    def test_text_of(self):
        assert "Hi there" in text_of(sample_doc())
        assert "$10.00" in text_of(sample_doc())

    def test_signature(self):
        span = find_all(sample_doc(), tag="span")[0]
        assert span.signature() == "span.price"
        html = sample_doc()
        assert html.signature() == "html"

    def test_has_class_multi(self):
        el = Element("div", {"class": "a b c"})
        assert el.has_class("b")
        assert not el.has_class("d")


# -- property tests -------------------------------------------------------

_tags = st.sampled_from(["div", "span", "p", "section", "li"])
_classes = st.sampled_from(["", "price", "item", "nav", "x y"])
#: code points ``str.splitlines()`` breaks on but the serializer never
#: emits as a line break; they may sit inside a text node (the parser
#: strips them from its ends, like any whitespace)
_LINE_BREAK_LOOKALIKES = "\u2028\u2029\x0b\x0c\x1c\x1d\x1e\x85"
_texts = st.text(
    alphabet=st.one_of(
        st.characters(whitelist_categories=("L", "N"), max_codepoint=0x7F),
        st.sampled_from(_LINE_BREAK_LOOKALIKES),
    ),
    min_size=1,
    max_size=12,
).filter(lambda text: text == text.strip())


@st.composite
def elements(draw, depth=0):
    tag = draw(_tags)
    cls = draw(_classes)
    attrs = {"class": cls} if cls else {}
    children = []
    if depth < 3:
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                children.append(draw(_texts))
            else:
                children.append(draw(elements(depth=depth + 1)))
    return Element(tag, attrs, children)


@given(elements())
@settings(max_examples=80, deadline=None)
def test_parse_render_roundtrip_property(element):
    """parse(render(x)) reproduces the same serialized document."""
    root = Element("html", children=[Element("body", children=[element])])
    html = render(root)
    assert render(parse(html)) == html


def test_text_splits_on_the_serializers_newline_only():
    """U+2028 and friends are text, not line breaks: the recorded
    selection text and the re-parsed text must be the same node."""
    element = Element("p", {}, ["a\u2028b\x0bc\x85d"])
    assert parse(render(element)).children == element.children
