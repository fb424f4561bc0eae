"""One C JSON encoder per text form, built once.

``json.JSONEncoder(...).encode`` builds a fresh C encoder and a
circular-reference markers dict on every call.  The wire codec
(:mod:`repro.net.protocol`) and the storage engines
(:mod:`repro.storage.backend`) encode every envelope and every stored
row, so each holds an encoder from :func:`compact_encoder` instead.
This module imports nothing from the package, so neither side pulls in
the other.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Callable


def compact_encoder(sort_keys: bool) -> Callable[[Any], str]:
    """``json.JSONEncoder(separators=(",", ":"), sort_keys=sort_keys).encode``
    with its C encoder built once, here, instead of on every call.

    The text is the same byte for byte, and so is the ``TypeError`` of a
    value that is not JSON-representable (the encoder's own ``default``).
    It keeps no circular-reference markers: a circular value, like one
    nested past the recursion limit, raises ``RecursionError``, which the
    caller maps.  Where the C accelerator is missing this is
    ``JSONEncoder.encode`` itself.
    """
    reference = json.JSONEncoder(separators=(",", ":"), sort_keys=sort_keys)
    if c_make_encoder is None:
        return reference.encode
    encoder = c_make_encoder(
        None, reference.default, encode_basestring_ascii, None,
        reference.key_separator, reference.item_separator, sort_keys,
        reference.skipkeys, reference.allow_nan,
    )

    def encode(value: Any) -> str:
        return "".join(encoder(value, 0))

    return encode
