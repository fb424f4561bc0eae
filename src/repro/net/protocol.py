"""Typed request/response envelopes and the shared wire codec.

Every message between $heriff components travels as one of two
envelopes — :class:`Request` or :class:`Response` — serialised by the
*same* JSON codec regardless of transport.  The sim transport hands the
encoded bytes to the destination's handler in-process; the socket
transport frames the same bytes with a 4-byte big-endian length prefix
on a blocking TCP socket (:func:`read_frame`).  Routing both paths
through one codec is what makes the row-identity property cheap to
guarantee: any payload that survives ``encode`` → ``decode`` is
normalised identically (tuples become lists, dict keys become strings)
no matter which transport delivered it.

"Canonical" means compact separators, ASCII escapes and sorted keys, so
the byte count of an envelope is a function of its decoded value — the
sender, the frame-size check and any re-encoder agree on it.  One
envelope part is exempt from the key sort: an ``ok`` result handed over
as :class:`RawJSON` — text already in the compact ASCII form, such as a
stored result set — is written into the envelope verbatim, so a server
never decodes and re-encodes what it only forwards.  Its keys keep the
order they were stored in; its length is what the sorted re-encoding
would give.  :func:`decode` is unchanged and parses every byte.

Wire format (socket mode)::

    +----------------+----------------------------------+
    | length (4B BE) | UTF-8 JSON of to_wire(envelope)  |
    +----------------+----------------------------------+

The length counts the JSON body only.  Frames above
:data:`MAX_FRAME_BYTES` are refused on *both* sides — the sender raises
:class:`FrameTooLarge` before writing, the receiver drops the
connection — so an oversized payload fails identically through either
transport.

Frames arrive from peers this process does not control, so
:func:`decode` answers every byte string with an envelope or a
:class:`ProtocolError` — never ``RecursionError``, ``OverflowError`` or
the interpreter's int-digit-limit ``ValueError`` — and
:func:`read_frame` gives a frame a deadline from its first byte.
Handlers return values this process does not vet either, so
:func:`encode` likewise answers every envelope with bytes or a
:class:`ProtocolError`, a result nested past the recursion limit
included.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass, field
from time import monotonic
from typing import Any, Optional, Tuple, Union

from repro._jsontext import compact_encoder

__all__ = [
    "FrameTooLarge",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RawJSON",
    "Request",
    "Response",
    "decode",
    "encode",
    "from_wire",
    "pack_frame",
    "read_frame",
    "split_frame",
    "to_wire",
]

#: bumped whenever the envelope schema changes; the mesh handshake
#: refuses to pair components speaking different versions.
PROTOCOL_VERSION = 1

#: refuse frames above 4 MiB — far beyond any legitimate price-check
#: batch, small enough to bound a misbehaving peer's memory cost.
MAX_FRAME_BYTES = 4 * 1024 * 1024

_HEADER = struct.Struct(">I")


#: the canonical text of a JSON-ready value; ``RecursionError`` for a
#: circular or too-deep one (:func:`encode` maps it)
_canonical = compact_encoder(sort_keys=True)

#: what follows the result of a spliced ``ok`` response
_RAW_TAIL = f',"type":"response","v":{PROTOCOL_VERSION}}}'


class ProtocolError(ValueError):
    """A frame or envelope that does not parse as the wire protocol."""


class FrameTooLarge(ProtocolError):
    """An envelope whose encoded size exceeds the frame limit."""


@dataclass(frozen=True)
class Request:
    """One method call from ``src`` to ``dst``.

    ``call_id`` pairs the eventual :class:`Response` with its caller on
    a multiplexed connection; ``payload`` must be JSON-representable
    (the codec is the compatibility contract between transports).
    """

    call_id: int
    src: str
    dst: str
    method: str
    payload: Any = None


@dataclass(frozen=True)
class Response:
    """The outcome of one :class:`Request`.

    ``ok`` responses carry ``result``; failures carry ``error_kind`` —
    ``"network"``, ``"timeout"`` or ``"remote"`` — which the client
    transport maps back onto the typed exception hierarchy
    (:class:`~repro.net.sim.NetworkError` / ``NetworkTimeout`` /
    :class:`~repro.net.transport.RemoteCallError`).
    """

    call_id: int
    ok: bool
    result: Any = None
    error_kind: Optional[str] = None
    error_message: str = field(default="")


@dataclass(frozen=True)
class RawJSON:
    """An ``ok`` result that is already JSON text.

    ``text`` must be one JSON value in the codec's compact ASCII form
    (``json.dumps(value, separators=(",", ":"))``); :func:`encode` writes
    it into the envelope unchecked, and the receiver's :func:`decode`
    parses it like any other byte.  Anywhere else in an envelope it is
    not JSON-representable.
    """

    text: str


Envelope = Union[Request, Response]


def to_wire(msg: Envelope) -> dict:
    """Render an envelope as a plain JSON-ready dict."""
    if isinstance(msg, Request):
        return {
            "v": PROTOCOL_VERSION,
            "type": "request",
            "id": msg.call_id,
            "src": msg.src,
            "dst": msg.dst,
            "method": msg.method,
            "payload": msg.payload,
        }
    if isinstance(msg, Response):
        wire: dict = {
            "v": PROTOCOL_VERSION,
            "type": "response",
            "id": msg.call_id,
            "ok": msg.ok,
        }
        if msg.ok:
            wire["result"] = msg.result
        else:
            wire["error_kind"] = msg.error_kind or "remote"
            wire["error_message"] = msg.error_message
        return wire
    raise ProtocolError(f"not an envelope: {type(msg).__name__}")


_REQUIRED = object()


def _field(obj: dict, key: str, kind: type, default: Any = _REQUIRED) -> Any:
    """``obj[key]``, which must be exactly a ``kind``: checked, never
    coerced — ``True`` is no id, ``7.9`` no id, ``"false"`` no ``ok``."""
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise ProtocolError(f"malformed {obj.get('type')} envelope: no {key!r}")
    if type(value) is not kind:
        raise ProtocolError(
            f"malformed {obj.get('type')} envelope: {key!r} is "
            f"{type(value).__name__}, not {kind.__name__}"
        )
    return value


def from_wire(obj: Any) -> Envelope:
    """Parse a decoded JSON object back into a typed envelope.

    Every envelope field must arrive with its own JSON type: ``id`` an
    integer, ``ok`` a boolean, names and error texts strings (a failure
    may leave its error fields out).
    """
    if not isinstance(obj, dict):
        raise ProtocolError(f"envelope must be an object, got {type(obj).__name__}")
    version = obj.get("v")
    if type(version) is not int or version != PROTOCOL_VERSION:  # True == 1
        raise ProtocolError(f"protocol version {version!r} != {PROTOCOL_VERSION}")
    kind = obj.get("type")
    if kind == "request":
        return Request(
            call_id=_field(obj, "id", int),
            src=_field(obj, "src", str),
            dst=_field(obj, "dst", str),
            method=_field(obj, "method", str),
            payload=obj.get("payload"),
        )
    if kind == "response":
        call_id = _field(obj, "id", int)
        if _field(obj, "ok", bool):
            return Response(call_id, ok=True, result=obj.get("result"))
        return Response(
            call_id,
            ok=False,
            error_kind=_field(obj, "error_kind", str, "remote") or "remote",
            error_message=_field(obj, "error_message", str, ""),
        )
    raise ProtocolError(f"unknown envelope type {kind!r}")


def encode(msg: Envelope) -> bytes:
    """Serialise an envelope to canonical UTF-8 JSON bytes.

    ``sort_keys`` makes the encoding deterministic so byte counts (and
    the frame-size check) agree between the sender and any re-encoder.
    A :class:`RawJSON` result goes in as it is, between the sorted
    envelope keys around it.

    A payload or result that is not JSON-representable — not JSON at all,
    circular, or nested past the recursion limit (``RecursionError``) —
    raises :class:`ProtocolError`, the one exception a serving thread
    answers with an error response.
    """
    try:
        if isinstance(msg, Response) and msg.ok and isinstance(msg.result, RawJSON):
            text = (f'{{"id":{_canonical(msg.call_id)},"ok":true,'
                    f'"result":{msg.result.text}{_RAW_TAIL}')
        else:
            text = _canonical(to_wire(msg))
        return text.encode("utf-8")
    except (TypeError, ValueError, RecursionError) as exc:
        raise ProtocolError(f"payload is not JSON-representable: {exc}") from exc


def decode(data: Union[bytes, bytearray, str]) -> Envelope:
    """Parse codec output (or a hostile imitation of it).

    ``ValueError`` covers bad UTF-8, bad JSON and an integer literal
    above the interpreter's digit limit; ``RecursionError`` is what a
    body of 200 000 ``[`` raises inside the JSON scanner.
    """
    try:
        if not isinstance(data, str):
            data = data.decode("utf-8")
        return from_wire(json.loads(data))
    except ProtocolError:
        raise
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc


def pack_frame(msg: Envelope, max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Encode an envelope and prepend the 4-byte length header."""
    body = encode(msg)
    if len(body) > max_frame_bytes:
        raise FrameTooLarge(
            f"frame of {len(body)} bytes exceeds limit {max_frame_bytes}"
        )
    return _HEADER.pack(len(body)) + body


def split_frame(header: bytes, max_frame_bytes: int = MAX_FRAME_BYTES) -> int:
    """Validate a frame header and return the body length it announces."""
    if len(header) != _HEADER.size:
        raise ProtocolError(f"truncated frame header ({len(header)} bytes)")
    (length,) = _HEADER.unpack(header)
    if length > max_frame_bytes:
        raise FrameTooLarge(
            f"peer announced a {length}-byte frame, limit {max_frame_bytes}"
        )
    return length


def _fill(sock: socket.socket, view: memoryview, give_up_at: float) -> None:
    """``recv_into`` until ``view`` is full, re-arming the socket timeout
    with what is left of the frame deadline before every read."""
    while len(view):
        left = give_up_at - monotonic()
        if left <= 0:
            raise socket.timeout("frame deadline passed")
        sock.settimeout(left)
        got = sock.recv_into(view)
        if not got:
            raise ConnectionError("peer closed the connection mid-frame")
        view = view[got:]


def read_frame(
    sock: socket.socket, max_frame_bytes: int, frame_timeout: float
) -> Tuple[Envelope, int]:
    """Read one length-prefixed envelope from a blocking socket.

    Returns the envelope and the length of its JSON body (what the byte
    counters report).  The wait for the first byte is the socket's own
    timeout — the idle bound on a served connection, the call deadline on
    a client; from that byte on the whole frame has ``frame_timeout``
    seconds to arrive, however slowly the peer trickles it.

    Raises :class:`ProtocolError` subclasses on malformed input and lets
    ``socket.timeout``/``ConnectionError``/``OSError`` propagate so the
    transport can map them onto ``NetworkTimeout``/``NetworkError``.
    """
    header = bytearray(_HEADER.size)
    view = memoryview(header)
    got = sock.recv_into(view)
    if not got:
        raise ConnectionError("peer closed the connection")
    give_up_at = monotonic() + frame_timeout
    _fill(sock, view[got:], give_up_at)
    body = bytearray(split_frame(header, max_frame_bytes))
    _fill(sock, memoryview(body), give_up_at)
    return decode(body), len(body)
