"""The currency detection and conversion algorithm of Sect. 3.5.

The Measurement server receives the raw price string selected by the
user (or located via the Tags Path on a remote page) and must produce a
``(amount, currency, confidence)`` triple.  The algorithm has three
parts, mirroring the paper:

1. **Normalization** — newline characters and repeated spaces are
   collapsed.
2. **Currency detection** — in strict order: (a) 3-letter ISO notation
   (``USD``); (b) custom retailer notation (``US$``); (c) bare symbol
   (``$``).  Symbols shared by several currencies yield the detector's
   best guess with *low confidence* — the result page marks these with a
   red asterisk (Fig. 2).  If nothing matches, the currency is unknown
   and the price is returned unconverted.
3. **Amount extraction** — digits are pulled out handling thousand /
   decimal separators in both anglophone (``1,234.56``) and continental
   (``1.234,56`` / ``18 215``) conventions.  If the selected string is a
   concatenation of letters and digits (``EUR654``) it is split into
   letter-words and digit-words and part 2 is repeated — exactly the
   retry described in the paper.

Input sanity checks reproduce the paper's request constraints: the
selected string must be at most 25 characters and contain at least one
digit (a guard against code-injection through the price field).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.currency.codes import (
    AMBIGUOUS_SYMBOLS,
    CURRENCIES,
    CUSTOM_NOTATIONS,
    UNIQUE_SYMBOLS,
)

MAX_SELECTION_LENGTH = 25


class CurrencyDetectionError(ValueError):
    """The selected text cannot be accepted as a price selection."""


class Confidence(enum.Enum):
    """Detector confidence in the currency assignment."""

    HIGH = "high"
    LOW = "low"  # ambiguous symbol: rendered with a red asterisk
    UNKNOWN = "unknown"  # no currency notation recognized


@dataclass(frozen=True)
class DetectedPrice:
    """Result of running the detection algorithm on a selected string."""

    original: str
    amount: Optional[float]
    currency: Optional[str]
    confidence: Confidence
    candidates: Tuple[str, ...] = ()


_WS_RE = re.compile(r"\s+")
_LETTER_RUN_RE = re.compile(r"[A-Za-z]+")
_INJECTION_RE = re.compile(r"[<>;{}\\]|script", re.IGNORECASE)

# -- notation tables compiled once at import --------------------------------
#
# The detector used to re-sort each notation dict and probe the text with
# ``str.find`` per notation on every call.  Each tier now compiles to one
# zero-width overlapping-alternation regex ``(?=(n1|n2|…))`` with the
# alternatives in the tier's priority order (longest first, dict order on
# ties — exactly what the per-call ``sorted`` produced) plus a rank table.
# One scan collects every notation occurrence (the lookahead makes matches
# overlap-safe); the minimum-rank capture is the tier's winner.  At the
# true winner's position the alternation could only prefer a *higher*
# priority notation — which would itself be present and contradict the
# winner being the highest-priority notation in the text — so the scan
# returns exactly the notation the legacy priority loop found.


def _compile_tier(notations) -> Tuple["re.Pattern[str]", dict]:
    ordered = sorted(notations, key=len, reverse=True)
    pattern = re.compile(
        "(?=(" + "|".join(re.escape(n) for n in ordered) + "))"
    )
    return pattern, {n: i for i, n in enumerate(ordered)}


_CUSTOM_RE, _CUSTOM_RANK = _compile_tier(CUSTOM_NOTATIONS)
_UNIQUE_RE, _UNIQUE_RANK = _compile_tier(UNIQUE_SYMBOLS)
_AMBIGUOUS_RE, _AMBIGUOUS_RANK = _compile_tier(AMBIGUOUS_SYMBOLS)

#: an ISO token is a maximal letter run of exactly three letters — the
#: lookarounds reject runs that continue on either side, so this visits
#: the same tokens, in the same order, as filtering ``_LETTER_RUN_RE``
#: matches down to ``len == 3``.
_ISO_RE = re.compile(r"(?<![A-Za-z])[A-Za-z]{3}(?![A-Za-z])")


def _tier_find(text: str, pattern, rank) -> Optional[str]:
    """Highest-priority notation of one tier present in ``text``."""
    best = None
    best_rank = len(rank)
    for match in pattern.finditer(text):
        r = rank[match.group(1)]
        if r < best_rank:
            best, best_rank = match.group(1), r
            if r == 0:
                break
    return best


def _normalize(text: str) -> str:
    """Part 1: drop newlines and collapse repeated whitespace."""
    return _WS_RE.sub(" ", text).strip()


#: how much of an oversized selection its error message quotes: the text
#: may be a whole element of an untrusted page, and the message is
#: stored with the row
ERROR_QUOTE_MAX = 80


def _validate(text: str) -> None:
    if len(text) > MAX_SELECTION_LENGTH:
        quoted = repr(text[:ERROR_QUOTE_MAX])
        if len(text) > ERROR_QUOTE_MAX:
            quoted += f"… ({len(text)} characters)"
        raise CurrencyDetectionError(
            f"selection longer than {MAX_SELECTION_LENGTH} characters: {quoted}"
        )
    if not any(ch.isdigit() for ch in text):
        raise CurrencyDetectionError(f"selection contains no digit: {text!r}")
    if _INJECTION_RE.search(text):
        raise CurrencyDetectionError(f"selection rejected by input sanitization: {text!r}")


def _detect_currency(text: str) -> Tuple[Optional[str], Confidence, Tuple[str, ...], str]:
    """Part 2: return (code, confidence, candidates, text_without_token)."""
    # (a) 3-letter ISO notation.  Exact-length letter runs handle both
    # "654 USD" and the concatenated "EUR654" (the paper's part-3 retry
    # folds in here).
    for match in _ISO_RE.finditer(text):
        token = match.group(0).upper()
        if token in CURRENCIES:
            remainder = text[: match.start()] + " " + text[match.end():]
            return token, Confidence.HIGH, (token,), remainder

    # (b) custom retailer notation, longest first so "US$" wins over "$".
    notation = _tier_find(text, _CUSTOM_RE, _CUSTOM_RANK)
    if notation is not None:
        idx = text.find(notation)
        code = CUSTOM_NOTATIONS[notation]
        remainder = text[:idx] + " " + text[idx + len(notation):]
        return code, Confidence.HIGH, (code,), remainder

    # (c) bare symbols — unambiguous ones first, then ambiguous ones.
    symbol = _tier_find(text, _UNIQUE_RE, _UNIQUE_RANK)
    if symbol is not None:
        idx = text.find(symbol)
        code = UNIQUE_SYMBOLS[symbol]
        remainder = text[:idx] + " " + text[idx + len(symbol):]
        return code, Confidence.HIGH, (code,), remainder
    symbol = _tier_find(text, _AMBIGUOUS_RE, _AMBIGUOUS_RANK)
    if symbol is not None:
        idx = text.find(symbol)
        candidates = AMBIGUOUS_SYMBOLS[symbol]
        remainder = text[:idx] + " " + text[idx + len(symbol):]
        confidence = Confidence.HIGH if len(candidates) == 1 else Confidence.LOW
        return candidates[0], confidence, candidates, remainder

    return None, Confidence.UNKNOWN, (), text


_GROUP_SEP_RE = re.compile(r"(?<=\d)[\s'](?=\d)")
_AMOUNT_RE = re.compile(r"\d[\d.,]*")
_LETTER_DIGIT_SPLIT_RE = re.compile(r"(?<=[A-Za-z])(?=\d)|(?<=\d)(?=[A-Za-z])")


def parse_amount(text: str) -> Optional[float]:
    """Part 3: extract the numeric amount from a currency-free string.

    Handles ``1,234.56``, ``1.234,56``, ``18 215``, ``1'234``, bare
    integers, and single-separator cases where the separator role must be
    guessed (two or fewer trailing digits → decimal; otherwise grouping).
    """
    text = _GROUP_SEP_RE.sub("", text)
    match = _AMOUNT_RE.search(text)
    if match is None:
        return None
    token = match.group(0).rstrip(".,")
    has_dot, has_comma = "." in token, "," in token
    if has_dot and has_comma:
        decimal_sep = "." if token.rfind(".") > token.rfind(",") else ","
        group_sep = "," if decimal_sep == "." else "."
        token = token.replace(group_sep, "").replace(decimal_sep, ".")
    elif has_dot or has_comma:
        sep = "." if has_dot else ","
        parts = token.split(sep)
        if len(parts) > 2:
            token = token.replace(sep, "")  # repeated separator: grouping
        else:
            head, tail = parts
            if len(tail) <= 2 and head != "":
                token = head + "." + tail  # decimal separator
            else:
                token = head + tail  # grouping ("2,963", ",500" edge)
    try:
        return float(token)
    except ValueError:
        return None


@lru_cache(maxsize=4096)
def detect_price(text: str) -> DetectedPrice:
    """Run the full 3-part detection algorithm on a selected string.

    Pure function of its input, so results are memoized: a sweep that
    checks the same product from many vantages detects each distinct
    price string once.  (:class:`DetectedPrice` is frozen, so sharing
    the instance is safe; rejections raise and are never cached.)
    """
    normalized = _normalize(text)
    _validate(normalized)
    code, confidence, candidates, remainder = _detect_currency(normalized)
    amount = parse_amount(remainder)
    if amount is None:
        # Concatenated letters/digits retry (part 3 of the paper): split
        # the single word into letter words and digit words.
        split = _LETTER_DIGIT_SPLIT_RE.sub(" ", normalized)
        code, confidence, candidates, remainder = _detect_currency(split)
        amount = parse_amount(remainder)
    return DetectedPrice(
        original=text,
        amount=amount,
        currency=code,
        confidence=confidence,
        candidates=tuple(candidates),
    )


def _group_thousands(integral: str, sep: str = ",") -> str:
    out = []
    for i, ch in enumerate(reversed(integral)):
        if i and i % 3 == 0:
            out.append(sep)
        out.append(ch)
    return "".join(reversed(out))


def format_price(
    amount: float,
    code: str,
    style: str = "symbol",
    grouping: bool = True,
    decimals: Optional[int] = None,
) -> str:
    """Render an amount the way a retailer would (inverse of detection).

    Styles:

    * ``iso_tight``   — ``EUR654`` (code glued to the number, Fig. 2)
    * ``iso_space``   — ``654.00 USD``
    * ``symbol``      — ``$699`` / ``ILS2,963``-style symbol prefix
    * ``symbol_suffix`` — ``6,283 kr``
    * ``continental`` — ``1.234,56 €`` (dot grouping, comma decimals)
    * ``custom``      — retailer notation, e.g. ``US$699``
    """
    currency = CURRENCIES[code.upper()]
    n_dec = currency.decimals if decimals is None else decimals
    quantized = f"{amount:.{n_dec}f}"
    if "." in quantized:
        integral, frac = quantized.split(".")
    else:
        integral, frac = quantized, ""
    if grouping:
        integral = _group_thousands(integral)
    number = integral + ("." + frac if frac else "")

    if style == "iso_tight":
        return f"{currency.code}{number}"
    if style == "iso_space":
        return f"{number} {currency.code}"
    if style == "symbol":
        return f"{currency.symbol}{number}"
    if style == "symbol_suffix":
        return f"{number} {currency.symbol}"
    if style == "continental":
        cont = integral.replace(",", ".") + ("," + frac if frac else "")
        return f"{cont} {currency.symbol}"
    if style == "custom":
        for notation, mapped in CUSTOM_NOTATIONS.items():
            if mapped == currency.code:
                return f"{notation}{number}"
        return f"{currency.symbol}{number}"
    raise ValueError(f"unknown price style {style!r}")
