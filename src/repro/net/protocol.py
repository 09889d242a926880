"""Wire protocol: length-prefixed JSON frames + the error round-trip.

Framing
-------

Every message — request or response — is one *frame*::

    +----------------+---------------------------+
    | length (4B BE) | UTF-8 JSON object payload |
    +----------------+---------------------------+

The length covers the payload only and must be in ``(0, max_frame]``;
``DEFAULT_MAX_FRAME`` is 8 MiB.  A length outside that range, or a payload
that is not a JSON *object*, is a :class:`~repro.errors.ProtocolError` and
poisons the connection (there is no way to resynchronize a byte stream
after a bad length).

Requests and responses
----------------------

A request is ``{"op": <OP>, ...args}``; operations are listed in
:data:`REQUEST_OPS`.  A response is either ``{"ok": true, ...result}`` or
``{"ok": false, "error": {"code", "type", "message"}}``.  Error responses
reconstruct as the *same* exception class on the client via the stable
``code`` attributes on :class:`~repro.errors.ReproError` (see
:func:`raise_error_payload`), so the wire is lossless for every
user-facing error class.

One framing parser serves both ends: each ``recv`` feeds a per-connection
:class:`FrameDecoder` (the client's through :func:`next_frame`); a frame
is one C encoder call to write and one C scanner call to parse.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Mapping, Optional

from _json import encode_basestring_ascii, make_encoder, make_scanner  # no fallback

from repro.errors import (
    ConnectionClosed,
    ProtocolError,
    ReproError,
    SnapshotTooOld,
    error_from_code,
)

#: Frame payload ceiling (bytes).  Generous for SmallBank rows; a scan of a
#: very large table may need a higher per-server/per-client setting.
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

_LENGTH = struct.Struct(">I")
LENGTH_BYTES = _LENGTH.size
#: The ``>I`` length prefix of a frame, read from the start of a buffer.
unpack_length = _LENGTH.unpack_from
#: What a client asks of one blocking ``recv``: any SmallBank reply.
RECV_BYTES = 65536

#: Every operation the server understands (DESIGN.md §11 op table).
REQUEST_OPS = (
    "PING",
    "STATS",
    "BEGIN",
    "READ",
    "SELECT_FOR_UPDATE",
    "LOOKUP_UNIQUE",
    "SCAN",
    "WRITE",
    "INSERT",
    "DELETE",
    "COMMIT",
    "ROLLBACK",
    "EXEC",
    "PREPARE_PROGRAM",
    "CALL",
    "VACUUM",
    "PREPARE_2PC",
    "COMMIT_2PC",
    "ABORT_2PC",
)

#: The statement ops, once for both ends of the wire: session verb ->
#: ``(op, request fields, reply field, takes-a-lock)``.  The fields are
#: the verb's parameter names in call order: the client zips its
#: arguments into the frame, the server passes them to the same verb of
#: its engine session by keyword and answers with what that returns
#: (``None``: an empty reply).  A lock ends the client's ``is_readonly``.
STATEMENT_OPS: "dict[str, tuple[str, tuple[str, ...], Optional[str], bool]]" = {
    "select": ("READ", ("table", "key"), "row", False),
    "select_for_update": ("SELECT_FOR_UPDATE", ("table", "key"), "row", True),
    "lookup_unique": ("LOOKUP_UNIQUE", ("table", "column", "value"), "found", False),
    "scan": ("SCAN", ("table", "description"), "rows", False),
    "write": ("WRITE", ("table", "key", "row"), None, True),
    "insert": ("INSERT", ("table", "row"), None, True),
    "delete": ("DELETE", ("table", "key"), None, True),
}


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _jsonify(value: object) -> object:
    """Encoder fallback: the engine returns rows as read-only mapping views."""
    if isinstance(value, Mapping):
        return dict(value)
    raise TypeError(
        f"object of type {type(value).__name__} is not wire-serializable"
    )


#: The C encoder ``JSONEncoder(separators=(",", ":"), default=_jsonify)``
#: builds on every ``encode``, built once — but with no markers.
_encode = make_encoder(
    None, _jsonify, encode_basestring_ascii, None, ":", ",", False, False, True
)


def encode_frame(message: Mapping[str, object]) -> bytes:
    """Serialize one message to its wire representation, in one C call:
    the bytes ``JSONEncoder(separators=(",", ":"), default=_jsonify)``
    writes, except that a message containing itself raises
    ``RecursionError``, not ``ValueError`` (no markers to check)."""
    payload = "".join(_encode(message, 0)).encode()
    return _LENGTH.pack(len(payload)) + payload


def encode_request(op: str, args: Mapping[str, object]) -> bytes:
    """``encode_frame({"op": op, **args})`` without building that dict."""
    body = "".join(_encode(args, 0))
    head = '{"op":' + encode_basestring_ascii(op)
    payload = (head + "," + body[1:] if len(body) > 2 else head + "}").encode()
    return _LENGTH.pack(len(payload)) + payload


#: Fed text, not bytes (``json.loads`` would sniff the encoding first),
#: and its C scanner called directly, not through ``decode``'s regexes.
_DECODER = json.JSONDecoder()
_scan = make_scanner(_DECODER)


def decode_payload(payload: "bytes | bytearray | memoryview") -> dict:
    """Decode one frame payload; raises :class:`ProtocolError` on garbage.
    Whatever one scan from offset 0 does not consume whole goes through
    ``JSONDecoder.decode``: same verdicts, same messages."""
    try:
        text = str(payload, "utf-8")
        try:
            message, end = _scan(text, 0)
        except (StopIteration, ValueError):
            end = -1
        if end != len(text):
            message = _DECODER.decode(text)
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:  # too deeply nested
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    return message


def check_length(length: int, max_frame: int = DEFAULT_MAX_FRAME) -> int:
    """Validate a decoded length prefix.

    The wire unpacks the prefix unsigned, so a peer's 2 GiB (or sign-bit)
    header arrives here as a huge positive length and is rejected *before*
    any buffer is sized to it.  The explicit negative check covers direct
    callers that pass an already-signed value.
    """
    if length < 0:
        raise ProtocolError(f"negative frame length {length}")
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte limit"
        )
    return length


class FrameDecoder:
    """Incremental frame decoder: feed bytes, collect decoded messages.

    Tolerates arbitrary fragmentation (a frame may arrive one byte at a
    time, or many frames in one read).  After a :class:`ProtocolError` the
    decoder is poisoned and every further :meth:`feed` re-raises — a byte
    stream cannot be resynchronized after a framing violation.
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME) -> None:
        self.max_frame = max_frame
        #: The bytes of a frame not yet complete (read it, do not write
        #: it: a client's one-frame call decodes a whole reply itself
        #: only while this is empty).
        self.buffer = bytearray()
        self._error: "Optional[ReproError]" = None

    def feed(self, data: "bytes | bytearray | memoryview") -> list[dict]:
        if self._error is not None:
            raise self._error
        if not self.buffer and len(data) >= LENGTH_BYTES:
            # Fast path: the buffer is empty and ``data`` is exactly one
            # whole frame of a legal length (the overwhelmingly common case
            # for a request/response protocol) — skip the bytearray churn.
            (length,) = _LENGTH.unpack_from(data)
            if LENGTH_BYTES + length == len(data) and 0 < length <= self.max_frame:
                try:
                    return [decode_payload(data[LENGTH_BYTES:])]
                except ProtocolError as exc:
                    self._error = exc
                    raise
        self.buffer.extend(data)
        messages: list[dict] = []
        try:
            while True:
                if len(self.buffer) < LENGTH_BYTES:
                    return messages
                (length,) = _LENGTH.unpack_from(self.buffer)
                check_length(length, self.max_frame)
                end = LENGTH_BYTES + length
                if len(self.buffer) < end:
                    return messages
                payload = bytes(self.buffer[LENGTH_BYTES:end])
                del self.buffer[:end]
                messages.append(decode_payload(payload))
        except ProtocolError as exc:
            self._error = exc
            raise

    def feed_eof(self) -> None:
        """The byte stream ended: raise if it ended *inside* a frame.

        A clean EOF at a frame boundary is a no-op; an EOF with buffered
        bytes means the peer closed mid-frame (a truncated length prefix
        or a payload cut short) — that is a :class:`ConnectionClosed`,
        and it poisons the decoder so a late ``feed`` cannot quietly
        resume and misparse the stream.  Deterministic: no partial op is
        ever surfaced, and nothing blocks.
        """
        if self._error is not None:
            raise self._error
        if self.buffer:
            exc = ConnectionClosed(
                f"peer closed mid-frame ({len(self.buffer)} byte(s) of an "
                f"incomplete frame buffered)"
            )
            self._error = exc
            raise exc

    @property
    def pending_bytes(self) -> int:
        return len(self.buffer)


# ----------------------------------------------------------------------
# Blocking reads (client side)
# ----------------------------------------------------------------------
def next_frame(
    sock: socket.socket, decoder: FrameDecoder, data: Optional[bytes] = None
) -> Optional[dict]:
    """Blocking read of the frame ``decoder`` completes next, starting
    with ``data`` when the caller has already read some; ``None`` on
    clean EOF between frames.  One request is in flight, so anything
    read past its reply — a second frame, or part of one — is a
    :class:`ProtocolError`."""
    while True:
        if data is None:
            try:
                data = sock.recv(RECV_BYTES)
            except OSError as exc:  # reset, timeout (a deadline), closed
                raise ConnectionClosed(f"socket error while receiving: {exc}") from None
        if not data:
            decoder.feed_eof()  # raises inside a frame
            return None
        messages, data = decoder.feed(data), None
        if len(messages) > 1:
            raise ProtocolError(f"{len(messages)} frames arrived for one request")
        if messages:
            if decoder.buffer:
                raise ProtocolError(
                    f"{len(decoder.buffer)} byte(s) arrived past the reply"
                )
            return messages[0]


def read_frame_sync(
    sock: socket.socket, max_frame: int = DEFAULT_MAX_FRAME
) -> Optional[dict]:
    """:func:`next_frame` with a throwaway decoder (a wire keeps its own)."""
    return next_frame(sock, FrameDecoder(max_frame))


# ----------------------------------------------------------------------
# Error round-trip
# ----------------------------------------------------------------------
def error_payload(exc: BaseException) -> dict:
    """Serialize an exception as an error response (with the ``horizon``
    of a :class:`~repro.errors.SnapshotTooOld`)."""
    code = getattr(exc, "code", "error")
    error = {"code": code, "type": type(exc).__name__, "message": str(exc)}
    horizon = getattr(exc, "horizon", 0)
    if horizon:
        error["horizon"] = horizon
    return {"ok": False, "error": error}


def raise_error_payload(error: Mapping[str, object]) -> "ReproError":
    """Raise the exception an error response describes.

    The declared return type is for callers that want
    ``raise raise_error_payload(...)`` ergonomics; this function always
    raises.
    """
    if not isinstance(error, Mapping) or "code" not in error:
        raise ProtocolError(f"malformed error payload: {error!r}")
    message = str(error.get("message", ""))
    exc = error_from_code(str(error["code"]), message)
    horizon = error.get("horizon")
    if isinstance(horizon, int) and isinstance(exc, SnapshotTooOld):
        exc.horizon = horizon
    raise exc
