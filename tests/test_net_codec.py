"""The frame codec and the client's reads, pinned before ISSUE 25 rewrote
them (every test here passes on the parent commit too).

* ``encode_frame`` writes exactly what ``json.JSONEncoder(separators=(",",
  ":"), default=_jsonify).encode`` wrote, over a hypothesis corpus;
* ``decode_payload`` accepts and rejects exactly what
  ``JSONDecoder.decode`` does, with the same ``ProtocolError`` text;
* a client reply split into single bytes reassembles, and every way a
  reply can fail — EOF at a frame boundary or inside one, an oversize
  length prefix, the ``rpc_deadline`` — breaks the wire, which the pool
  then discards instead of handing it out again.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ConnectionClosed, ProtocolError
from repro.net.client import NetworkConnection, WireConnection
from repro.net.protocol import (
    LENGTH_BYTES,
    FrameDecoder,
    _jsonify,
    decode_payload,
    encode_frame,
)

REFERENCE_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_jsonify)


def reference_frame(message) -> bytes:
    payload = REFERENCE_ENCODER.encode(message).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: large ints too
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    st.text(),  # non-ASCII included: the wire escapes it
    st.text(alphabet="é中\U0001f600\"\\\n\t\x00\x1f", max_size=8),
)
keys = st.one_of(st.text(max_size=6), st.integers(), st.booleans(), st.none())
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(keys, inner, max_size=4),
        # Engine rows reach the encoder as read-only mapping views.
        st.dictionaries(st.text(max_size=6), inner, max_size=4).map(MappingProxyType),
    ),
    max_leaves=20,
)
messages = st.dictionaries(st.text(max_size=8), values, max_size=6)


def keys_encode_apart(value) -> bool:
    """False if some dictionary in ``value`` has two keys that encode to
    one JSON key (``True`` and ``"true"``, ``1`` and ``"1"``): no round
    trip can give such a dictionary back."""
    if isinstance(value, list):
        return all(keys_encode_apart(item) for item in value)
    if not isinstance(value, (dict, MappingProxyType)):
        return True
    encoded = {next(iter(json.loads(REFERENCE_ENCODER.encode({key: 0})))) for key in value}
    return len(encoded) == len(value) and all(map(keys_encode_apart, value.values()))


class TestEncode:
    @settings(max_examples=300, deadline=None)
    @given(messages)
    def test_bytes_identical_to_the_reference_encoder(self, message):
        frame = encode_frame(message)
        assert frame == reference_frame(message)
        (length,) = struct.unpack(">I", frame[:LENGTH_BYTES])
        assert length == len(frame) - LENGTH_BYTES

    @settings(max_examples=100, deadline=None)
    @given(messages)
    def test_decoding_then_encoding_gives_the_same_bytes(self, message):
        assume(keys_encode_apart(message))
        frame = encode_frame(message)
        assert encode_frame(decode_payload(frame[LENGTH_BYTES:])) == frame

    def test_a_row_view_encodes_as_its_dict(self):
        row = MappingProxyType({"CustomerId": 7, "Balance": -0.0, "Name": "Zoë"})
        assert encode_frame({"ok": True, "row": row}) == reference_frame(
            {"ok": True, "row": dict(row)}
        )

    def test_unserializable_value_is_a_type_error_and_the_next_frame_encodes(self):
        with pytest.raises(TypeError, match="not wire-serializable"):
            encode_frame({"op": "WRITE", "row": {"when": object()}})
        with pytest.raises(TypeError):
            encode_frame({"op": "WRITE", "row": {1.5j: 1}})  # not a key JSON has
        assert encode_frame({"op": "PING"}) == reference_frame({"op": "PING"})

    def test_circular_message_raises_and_the_next_frame_encodes(self):
        """ValueError from a checking encoder, RecursionError from one that
        keeps no markers (what ``encode_frame`` documents): either way
        nothing is written and the encoder is not left broken."""
        loop: dict = {"op": "PING"}
        loop["self"] = loop
        with pytest.raises((ValueError, RecursionError)):
            encode_frame(loop)
        assert encode_frame({"op": "PING"}) == reference_frame({"op": "PING"})


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def reference_decode(payload: bytes):
    """What ``decode_payload`` answered before ISSUE 25: the decoded dict,
    or the text of the ``ProtocolError``."""
    try:
        message = json.JSONDecoder().decode(str(payload, "utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        return f"frame payload is not valid JSON: {exc}"
    if not isinstance(message, dict):
        return f"frame payload must be a JSON object, got {type(message).__name__}"
    return message


DEEP = 100_000
PAYLOADS = [
    b'{"op":"PING"}',
    b'{"op": "READ", "table": "Saving", "key": 1}',
    b' {"op":"PING"}',
    b'\n\t\r {"op":"PING"}',
    b'{"op":"PING"} ',
    b'{"op":"PING"}\r\n',
    b' {"op":"PING"} ',
    b'{"op":"PING"}{"op":"PING"}',  # Extra data
    b'{"op":"PING"} x',
    b'{"op":"PING"',
    b'{"op" "PING"}',
    b'{"op":"PING",}',
    b"{'op':'PING'}",
    b'{"a":1,"a":2}',
    b'{"v":NaN,"w":Infinity,"x":-Infinity,"y":-0.0,"z":1e400}',
    b'{"big":123456789012345678901234567890}',
    b'{"s":"\\u00e9\\ud83d\\ude00\\n"}',
    '{"s":"Zoë 中"}'.encode("utf-8"),
    b'{"ctl":"\x01"}',  # a raw control character: strict JSON refuses it
    b"[1, 2, 3]",
    b'"a bare string"',
    b"1",
    b"null",
    b"true",
    b"",
    b"   ",
    b"\xff\xfe",
    b'{"a":"\xc3"}',  # bad UTF-8
    b'{"a":"\xed\xa0\x80"}',  # an encoded surrogate is not UTF-8 either
    b'\xef\xbb\xbf{"op":"PING"}',  # UTF-8 BOM
    '{"op": "PING"}'.encode("utf-16"),
    '{"op": "PING"}'.encode("utf-16-be"),
    '{"op": "PING"}'.encode("utf-32"),
    b'{"a":' + b"[" * 50 + b"]" * 50 + b"}",
    b'{"a":' + b"[" * DEEP + b"]" * DEEP + b"}",  # deep nesting
    b'{"a":' + b"[" * DEEP,
    b'{"a":' + b'{"b":' * DEEP + b"1" + b"}" * DEEP + b"}",
]


class TestDecode:
    @pytest.mark.parametrize("payload", PAYLOADS, ids=range(len(PAYLOADS)))
    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_same_verdict_and_text_as_the_reference_decoder(self, payload, wrap):
        expected = reference_decode(payload)
        if isinstance(expected, str):
            with pytest.raises(ProtocolError) as excinfo:
                decode_payload(wrap(payload))
            assert str(excinfo.value) == expected
        else:
            got = decode_payload(wrap(payload))
            assert json.dumps(got) == json.dumps(expected)  # NaN-safe equality

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=40))
    def test_arbitrary_bytes_get_the_reference_verdict(self, payload):
        expected = reference_decode(payload)
        if isinstance(expected, str):
            with pytest.raises(ProtocolError) as excinfo:
                decode_payload(payload)
            assert str(excinfo.value) == expected
        else:
            assert json.dumps(decode_payload(payload)) == json.dumps(expected)

    @settings(max_examples=200, deadline=None)
    @given(messages, st.sampled_from(["", " ", "\n", " \t\r\n"]),
           st.sampled_from(["", " ", "\n", "x", "{}", "]"]))
    def test_padded_frames_get_the_reference_verdict(self, message, lead, tail):
        text = lead + REFERENCE_ENCODER.encode(message) + tail
        payload = text.encode("utf-8")
        expected = reference_decode(payload)
        if isinstance(expected, str):
            with pytest.raises(ProtocolError) as excinfo:
                decode_payload(payload)
            assert str(excinfo.value) == expected
        else:
            assert json.dumps(decode_payload(payload)) == json.dumps(expected)


# ----------------------------------------------------------------------
# Client reads against a scripted server
# ----------------------------------------------------------------------
PONG = encode_frame({"ok": True, "pong": True})


class ScriptedServer:
    """A listening socket that, on every connection it accepts, reads a
    request frame and runs ``reply(sock)`` — again while that returns
    True, else it closes the connection."""

    def __init__(self, reply) -> None:
        self.reply = reply
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.requests: list = []
        self.errors: list = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:  # closed: done
                return
            try:
                with sock:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    decoder = FrameDecoder()
                    while True:
                        got: list = []
                        while not got:
                            data = sock.recv(4096)
                            if not data:  # the client hung up
                                break
                            got = decoder.feed(data)
                        if not got:
                            break
                        self.requests.extend(got)
                        if not self.reply(sock):
                            break
            except ConnectionError:  # a reset: the client hung up too
                pass
            except Exception as exc:  # pragma: no cover - reported below
                self.errors.append(exc)

    def close(self) -> None:
        self.listener.shutdown(socket.SHUT_RDWR)
        self.listener.close()
        self.thread.join(timeout=5)
        assert not self.errors, self.errors


@pytest.fixture
def scripted():
    servers: list[ScriptedServer] = []

    def start(reply) -> ScriptedServer:
        servers.append(ScriptedServer(reply))
        return servers[-1]

    yield start
    for server in servers:
        server.close()


def byte_by_byte(sock: socket.socket) -> bool:
    for i in range(len(PONG)):
        sock.sendall(PONG[i : i + 1])
        time.sleep(0.002)
    return True  # serve the next request too


def hang_up(sock: socket.socket) -> None:
    pass  # the ``with`` closes it: EOF at a frame boundary


def hang_up_mid_frame(sock: socket.socket) -> None:
    sock.sendall(PONG[: len(PONG) // 2])


def two_frames(sock: socket.socket) -> None:
    sock.sendall(PONG + PONG)  # one read, two replies to one request


def oversize_prefix(sock: socket.socket) -> None:
    sock.sendall(struct.pack(">I", 1 << 31) + b"{}")
    sock.recv(1)  # keep the socket open until the client gives up


def never_answer(sock: socket.socket) -> None:
    sock.recv(1)  # until the client gives up


class TestClientReads:
    def test_a_reply_in_single_byte_segments_reassembles(self, scripted):
        server = scripted(byte_by_byte)
        wire = WireConnection("127.0.0.1", server.port)
        try:
            for _ in range(2):  # and the wire is in step for the next one
                assert wire.call("PING", {}) == {"ok": True, "pong": True}
            assert not wire.broken and not wire.awaiting_reply
        finally:
            wire.close()
        assert server.requests == [{"op": "PING"}] * 2

    def test_bytes_past_a_reply_break_the_wire(self, scripted):
        """A reply and the first bytes of another in one read: one
        request is out, so those bytes answer nothing — the call that
        read them fails and the wire is broken, never pooled."""

        def reply_and_a_bit(sock: socket.socket) -> bool:
            sock.sendall(PONG + PONG[:3])
            return True

        server = scripted(reply_and_a_bit)
        wire = WireConnection("127.0.0.1", server.port)
        try:
            with pytest.raises(ProtocolError, match="past the reply"):
                wire.call("PING", {})
            assert wire.broken
        finally:
            wire.close()

    @pytest.mark.parametrize(
        "reply,error",
        [
            (hang_up, ConnectionClosed),
            (hang_up_mid_frame, ConnectionClosed),
            (two_frames, ProtocolError),
            (oversize_prefix, ProtocolError),
            (never_answer, ConnectionClosed),
        ],
        ids=["eof-at-boundary", "eof-mid-frame", "two-frames", "oversize-prefix", "rpc-deadline"],
    )
    def test_a_failed_reply_breaks_the_wire_and_the_pool_drops_it(
        self, scripted, reply, error
    ):
        server = scripted(reply)
        conn = NetworkConnection(
            "127.0.0.1", server.port, pool_size=1, timeout=5.0, rpc_deadline=0.3
        )
        try:
            session = conn.session()
            wire = session._wire
            started = time.monotonic()
            with pytest.raises(error):
                session._call("PING")
            assert time.monotonic() - started < 5.0
            assert wire.broken
            session.close()
            assert conn._idle == []  # never pooled ...
            assert wire.sock.fileno() == -1  # ... but closed
            # ... and its pool slot is free again: pool_size=1 dials anew.
            again = conn.session()
            fresh = again._wire
            assert fresh is not wire
            again.close()
            assert conn._idle == [fresh]
        finally:
            conn.close()

    def test_a_failed_out_of_session_call_is_not_pooled(self, scripted):
        server = scripted(hang_up_mid_frame)
        conn = NetworkConnection(
            "127.0.0.1", server.port, pool_size=1, timeout=5.0
        )
        try:
            assert conn.ping(deadline=0.5) is False
            assert conn._idle == []
        finally:
            conn.close()
