"""Fuzz tests: hostile inputs must fail loudly or succeed — never crash.

The $heriff processes text from arbitrary web pages (price selections,
remote HTML).  These tests drive the parsers with garbage and assert the
only allowed outcomes: a well-typed result or the module's declared
exception.
"""

import random
import string
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tagspath import TagsPath, _scan, extract_price_text
from repro.currency.detect import (
    CurrencyDetectionError,
    DetectedPrice,
    detect_price,
    format_price,
    parse_amount,
)
from repro.net.faults import FaultPlan
from repro.web.html import (
    SKIP,
    T_TEXT,
    HTMLParseError,
    classify,
    find_all,
    parse,
    split_tags,
    tokenize,
)

from tests.oracles import tagspath_legacy
from tests.oracles.tagspath_legacy import build_tags_path

_price_chars = st.text(
    alphabet=string.ascii_letters + string.digits + " .,€$¥£+-()'<>/",
    max_size=30,
)


@given(text=_price_chars)
@settings(max_examples=300, deadline=None)
def test_detect_price_never_crashes(text):
    try:
        result = detect_price(text)
    except CurrencyDetectionError:
        return
    assert isinstance(result, DetectedPrice)
    if result.amount is not None:
        assert result.amount >= 0


@given(text=st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_parse_amount_never_crashes(text):
    amount = parse_amount(text)
    assert amount is None or amount >= 0


_html_soup = st.text(
    alphabet=string.ascii_letters + string.digits + ' <>/="-.',
    max_size=120,
)


@given(html=_html_soup)
@settings(max_examples=300, deadline=None)
def test_html_parser_never_crashes(html):
    """parse() either returns a tree or raises HTMLParseError."""
    try:
        root = parse(html)
    except HTMLParseError:
        return
    assert root.tag


@given(html=_html_soup)
@settings(max_examples=200, deadline=None)
def test_extract_price_text_never_crashes(html):
    """Extraction over garbage pages returns None, never raises."""
    path = TagsPath(entries=("html", "body", "div.product"),
                    target="span.price")
    out = extract_price_text(html, path)
    assert out is None or isinstance(out, str)


_tag_soup = st.lists(
    st.sampled_from([
        "<html>", "</html>", "<div>", "</div>", '<span class="price">',
        "</span>", "<br>", "</br>", "<p/>", "<img/>", "<!-- x -->", "<1>",
        "< div >", "</div class=\"x\">", "<SPAN CLASS=\"price\">", "$9.99",
        " ", "\n", "a\u2028b", "<",
    ]),
    max_size=14,
).map("".join)


def _accepts(consume, html):
    try:
        consume(html)
    except HTMLParseError:
        return False
    return True


def _skeleton_scan(html):
    """What extraction does to a page, minus the memo and the match: scan
    the tags, then refuse this page's text outside the root."""
    parts = split_tags(html)[0]
    _, _, (root_open, root_close) = _scan(parts[1::2], "span.price")
    outside = parts[:2 * root_open + 1:2] + parts[2 * root_close + 2::2]
    if "".join(outside).replace("<", "").strip():
        raise HTMLParseError("text outside the document root")


@given(html=st.one_of(_html_soup, _tag_soup))
@settings(max_examples=600, deadline=None)
def test_parse_and_flat_scan_share_one_grammar(html):
    """parse() raises HTMLParseError exactly when the skeleton scan gives
    up for a parse reason — two consumers, one grammar — and on the pages
    both accept, the scan extracts what the tree-walking oracle does.
    tokenize() and the scan classify the same split_tags entries: a tag
    is malformed for both or for neither, and nothing but text separates
    the token stream from the tags the scan reads."""
    assert _accepts(parse, html) == _accepts(_skeleton_scan, html)
    tags = split_tags(html)[0][1::2]
    assert _accepts(tokenize, html) == _accepts(
        lambda _: [classify(raw) for raw in tags], html
    )
    if _accepts(tokenize, html):
        assert [t for t in tokenize(html) if t[0] != T_TEXT] == [
            t for t in map(classify, tags) if t is not SKIP
        ]
    path = TagsPath(entries=("html", "div"), target="span.price")
    expected = tagspath_legacy.extract_price_text(html, path)
    assert extract_price_text(html, path) == expected
    assert extract_price_text(html, path) == expected  # its plan is now memoised


@given(
    amount=st.floats(min_value=0, max_value=1e12,
                     allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_parse_amount_roundtrips_plain_floats(amount):
    text = f"{amount:.2f}"
    parsed = parse_amount(text)
    assert parsed is not None
    assert abs(parsed - round(amount, 2)) < 1e-6 * max(1.0, amount)


# -- format → detect round trips ---------------------------------------------

_ROUNDTRIP_CODES = ("EUR", "USD", "GBP", "JPY", "SEK", "PLN", "ILS")


@given(
    amount=st.floats(min_value=0.01, max_value=1e7,
                     allow_nan=False, allow_infinity=False),
    code=st.sampled_from(_ROUNDTRIP_CODES),
    style=st.sampled_from(("iso_tight", "iso_space")),
)
@settings(max_examples=200, deadline=None)
def test_format_detect_roundtrip_iso(amount, code, style):
    """A price rendered with an ISO code detects back to the same
    currency and amount — the inverse-function property of Sect. 4."""
    text = format_price(amount, code, style=style)
    detected = detect_price(text)
    assert detected.currency == code
    assert detected.amount is not None
    from repro.currency.detect import CURRENCIES

    expected = round(amount, CURRENCIES[code].decimals)
    assert abs(detected.amount - expected) < 1e-6 * max(1.0, expected)


@given(
    amount=st.floats(min_value=0.01, max_value=1e7,
                     allow_nan=False, allow_infinity=False),
    code=st.sampled_from(_ROUNDTRIP_CODES),
)
@settings(max_examples=100, deadline=None)
def test_format_detect_roundtrip_symbol_amount(amount, code):
    """Symbol styles may be ambiguous about the currency ($ lands on
    several codes) but the amount must always survive the round trip."""
    text = format_price(amount, code, style="symbol")
    detected = detect_price(text)
    assert detected.amount is not None
    from repro.currency.detect import CURRENCIES

    expected = round(amount, CURRENCIES[code].decimals)
    assert abs(detected.amount - expected) < 1e-6 * max(1.0, expected)
    if detected.currency is not None and detected.currency != code:
        assert code in detected.candidates or detected.candidates == ()


# -- seeded fuzzing against malformed / truncated store pages ----------------

def _store_page(price_text: str) -> str:
    """A realistic product page in the shape EStore renders."""
    return (
        "<html><head><title>store</title></head><body>"
        '<div class="nav"><span class="cart">0</span></div>'
        '<div class="product"><h1 class="name">Widget</h1>'
        f'<span class="price">{price_text}</span>'
        '<span class="stock">in stock</span></div>'
        "</body></html>"
    )


_PRICE_PATH = TagsPath(
    entries=("html", "body", "div.product"), target="span.price"
)


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150, deadline=None)
def test_truncated_store_page_never_crashes_extraction(seed):
    """Fault-plan-corrupted pages (the shape a half-delivered HTTP body
    takes under the ``corrupt`` fault) run the whole extraction +
    detection pipeline without crashing."""
    plan = FaultPlan(seed=seed)
    page = plan.corrupt_text(_store_page("EUR 1,234.56"))
    out = extract_price_text(page, _PRICE_PATH)
    assert out is None or isinstance(out, str)
    if out is not None:
        try:
            detected = detect_price(out)
        except CurrencyDetectionError:
            return
        assert isinstance(detected, DetectedPrice)


@given(seed=st.integers(min_value=0, max_value=100_000))
@settings(max_examples=150, deadline=None)
def test_randomly_mangled_page_never_crashes(seed):
    """Beyond truncation: splice, duplicate, and delete random slices of
    the page; parsing either yields a tree or raises HTMLParseError and
    extraction stays total."""
    rng = random.Random(seed)
    page = _store_page("$99.99")
    for _ in range(rng.randint(1, 4)):
        a, b = sorted(rng.randrange(len(page) + 1) for _ in range(2))
        op = rng.choice(("del", "dup", "swap"))
        if op == "del":
            page = page[:a] + page[b:]
        elif op == "dup":
            page = page[:a] + page[a:b] + page[a:b] + page[b:]
        else:
            page = page[:b] + page[a:b] + page[b:]
        if not page:
            page = "<"
    out = extract_price_text(page, _PRICE_PATH)
    assert out is None or isinstance(out, str)


def test_pathological_pages_extract_in_bounded_time():
    """Untrusted pages must not crash the Measurement server: a winning
    element enclosing 5k-deep nesting (the tree's recursive text walk
    raised RecursionError) and a 1 MB single text node both come back as
    a string or None, quickly."""
    deep = ("<html><body>" + "<div>" * 5000 + "$1" + "</div>" * 5000
            + "</body></html>")
    huge = '<html><body><span class="price">' + "9" * 1_000_000 + "</span></body></html>"
    started = time.perf_counter()
    assert extract_price_text(deep, TagsPath(entries=("html",), target="body")) == "$1"
    assert extract_price_text("<div>" * 5000, _PRICE_PATH) is None
    assert extract_price_text(huge, _PRICE_PATH) == "9" * 1_000_000
    assert time.perf_counter() - started < 5.0


@given(
    amount=st.floats(min_value=0.01, max_value=99_999,
                     allow_nan=False, allow_infinity=False),
    code=st.sampled_from(_ROUNDTRIP_CODES),
)
@settings(max_examples=100, deadline=None)
def test_tags_path_roundtrip_on_clean_page(amount, code):
    """Recording a Tags Path for the price element and replaying it on
    the same page lands on the same element with the same text."""
    price_text = format_price(amount, code, style="iso_space")
    html = _store_page(price_text)
    root = parse(html)
    target = find_all(root, tag="span", cls="price")[0]
    path = build_tags_path(root, target)
    assert extract_price_text(html, path) == target.text().strip() == price_text


def test_tags_path_survives_page_variant():
    """The similarity match still finds the price when the page gains a
    wrapper div — the robustness property of the Tags Path design."""
    root = parse(_store_page("EUR 10.00"))
    target = find_all(root, tag="span", cls="price")[0]
    path = build_tags_path(root, target)
    variant = (
        "<html><body><div class=\"wrap\">"
        '<div class="product"><span class="price">EUR 10.00</span></div>'
        "</div></body></html>"
    )
    assert extract_price_text(variant, path) == "EUR 10.00"
