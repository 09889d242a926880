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

This module is transport-agnostic: the server's selector loop feeds
whatever each ``recv_into`` returned to a per-connection
:class:`FrameDecoder`, and the synchronous client uses
:func:`read_frame_sync` / :func:`write_frame_sync`.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Mapping, Optional

from repro.errors import (
    ConnectionClosed,
    ProtocolError,
    ReproError,
    error_from_code,
)

#: Frame payload ceiling (bytes).  Generous for SmallBank rows; a scan of a
#: very large table may need a higher per-server/per-client setting.
DEFAULT_MAX_FRAME = 8 * 1024 * 1024

_LENGTH = struct.Struct(">I")
LENGTH_BYTES = _LENGTH.size

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


#: Reused encoder: ``json.dumps`` with non-default arguments constructs a
#: fresh ``JSONEncoder`` per call, measurable at wire RPC rates.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_jsonify)


def encode_frame(message: Mapping[str, object]) -> bytes:
    """Serialize one message to its wire representation."""
    payload = _ENCODER.encode(message).encode("utf-8")
    return _LENGTH.pack(len(payload)) + payload


#: Reused decoder, fed text: ``json.loads`` on bytes sniffs the encoding
#: (the payload is UTF-8 by definition) before it gets here, and with that
#: costs twice what the parse itself does on a SmallBank frame.
_DECODER = json.JSONDecoder()


def decode_payload(payload: "bytes | bytearray | memoryview") -> dict:
    """Decode one frame payload; raises :class:`ProtocolError` on garbage."""
    try:
        message = _DECODER.decode(str(payload, "utf-8"))
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
        self._buffer = bytearray()
        self._error: "Optional[ReproError]" = None

    def feed(self, data: "bytes | bytearray | memoryview") -> list[dict]:
        if self._error is not None:
            raise self._error
        if not self._buffer and len(data) >= LENGTH_BYTES:
            # Fast path: the buffer is empty and ``data`` is exactly one
            # whole frame (the overwhelmingly common case for a
            # request/response protocol) — skip the bytearray churn.
            (length,) = _LENGTH.unpack_from(data)
            if LENGTH_BYTES + length == len(data):
                try:
                    check_length(length, self.max_frame)
                    return [decode_payload(data[LENGTH_BYTES:])]
                except ProtocolError as exc:
                    self._error = exc
                    raise
        self._buffer.extend(data)
        messages: list[dict] = []
        try:
            while True:
                if len(self._buffer) < LENGTH_BYTES:
                    return messages
                (length,) = _LENGTH.unpack_from(self._buffer)
                check_length(length, self.max_frame)
                end = LENGTH_BYTES + length
                if len(self._buffer) < end:
                    return messages
                payload = bytes(self._buffer[LENGTH_BYTES:end])
                del self._buffer[:end]
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
        if self._buffer:
            exc = ConnectionClosed(
                f"peer closed mid-frame ({len(self._buffer)} byte(s) of an "
                f"incomplete frame buffered)"
            )
            self._error = exc
            raise exc

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# ----------------------------------------------------------------------
# Synchronous socket helpers (client side)
# ----------------------------------------------------------------------
def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on clean EOF at a frame boundary."""
    chunks: list[bytes] = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise ConnectionClosed(f"socket error while receiving: {exc}") from None
        if not chunk:
            if chunks:
                raise ConnectionClosed(
                    f"peer closed mid-frame ({count - remaining}/{count} bytes)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sync(
    sock: socket.socket, max_frame: int = DEFAULT_MAX_FRAME
) -> Optional[dict]:
    """Blocking read of one frame; ``None`` on clean EOF between frames."""
    header = _recv_exact(sock, LENGTH_BYTES)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    check_length(length, max_frame)
    payload = _recv_exact(sock, length)
    if payload is None:
        raise ConnectionClosed("peer closed between length prefix and payload")
    return decode_payload(payload)


def write_frame_sync(sock: socket.socket, message: Mapping[str, object]) -> None:
    try:
        sock.sendall(encode_frame(message))
    except (ConnectionError, socket.timeout, OSError) as exc:
        raise ConnectionClosed(f"socket error while sending: {exc}") from None


# ----------------------------------------------------------------------
# Error round-trip
# ----------------------------------------------------------------------
def error_payload(exc: BaseException) -> dict:
    """Serialize an exception as an error response."""
    code = getattr(exc, "code", "error")
    return {
        "ok": False,
        "error": {
            "code": code,
            "type": type(exc).__name__,
            "message": str(exc),
        },
    }


def raise_error_payload(error: Mapping[str, object]) -> "ReproError":
    """Raise the exception an error response describes.

    The declared return type is for callers that want
    ``raise raise_error_payload(...)`` ergonomics; this function always
    raises.
    """
    if not isinstance(error, Mapping) or "code" not in error:
        raise ProtocolError(f"malformed error payload: {error!r}")
    message = str(error.get("message", ""))
    raise error_from_code(str(error["code"]), message)
