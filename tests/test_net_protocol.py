"""Wire-protocol framing unit tests (no sockets, no server).

The protocol is length-prefixed JSON (DESIGN.md §11); these tests pin the
edge cases the server's robustness contract depends on: fragmented reads,
oversized frames, zero-length frames, garbage payloads, and the decoder's
poisoning behaviour after a violation.
"""

import socket
import struct
from types import MappingProxyType

import pytest

from repro.errors import (
    ApplicationRollback,
    ConnectionClosed,
    ProtocolError,
    ReproError,
    SerializationFailure,
    SsiAbort,
)
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    LENGTH_BYTES,
    REQUEST_OPS,
    FrameDecoder,
    check_length,
    decode_payload,
    encode_frame,
    encode_request,
    error_payload,
    raise_error_payload,
    read_frame_sync,
)


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame({"op": "PING", "n": 1})
        decoder = FrameDecoder()
        (message,) = decoder.feed(frame)
        assert message == {"op": "PING", "n": 1}
        assert decoder.pending_bytes == 0

    def test_length_prefix_is_big_endian_u32(self):
        frame = encode_frame({"op": "PING"})
        (length,) = struct.unpack(">I", frame[:LENGTH_BYTES])
        assert length == len(frame) - LENGTH_BYTES

    def test_byte_at_a_time_reassembly(self):
        """A frame arriving in 1-byte TCP fragments decodes identically."""
        frame = encode_frame({"op": "EXEC", "params": {"v": 1.5}})
        decoder = FrameDecoder()
        messages = []
        for i in range(len(frame)):
            messages.extend(decoder.feed(frame[i : i + 1]))
        assert messages == [{"op": "EXEC", "params": {"v": 1.5}}]

    def test_split_across_length_prefix_boundary(self):
        frame = encode_frame({"op": "PING"})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:2]) == []  # half a length prefix
        assert decoder.pending_bytes == 2
        assert decoder.feed(frame[2:]) == [{"op": "PING"}]

    def test_multiple_frames_in_one_feed(self):
        """A pipelining client's burst decodes to every frame in order."""
        data = b"".join(encode_frame({"op": "PING", "i": i}) for i in range(5))
        decoder = FrameDecoder()
        messages = decoder.feed(data)
        assert [m["i"] for m in messages] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("op", ["PING", "CALL", "FROBNICATE", 'é"op'])
    @pytest.mark.parametrize(
        "args",
        [
            {},
            {"table": "Saving", "key": 1},
            {"pid": 812345678, "args": {"N": "Zoë"}, "label": "Balance"},
            {"row": MappingProxyType({"Balance": float("nan")}), 7: [-0.0]},
        ],
    )
    def test_a_request_is_the_frame_of_op_then_args(self, op, args):
        """``encode_request`` writes what ``encode_frame`` makes of the
        dict the client used to build: ``op`` first, then the arguments."""
        assert encode_request(op, args) == encode_frame({"op": op, **args})

    def test_partial_trailing_frame_stays_buffered(self):
        first = encode_frame({"op": "PING", "i": 0})
        second = encode_frame({"op": "PING", "i": 1})
        decoder = FrameDecoder()
        messages = decoder.feed(first + second[:-3])
        assert [m["i"] for m in messages] == [0]
        assert decoder.pending_bytes == len(second) - 3
        assert decoder.feed(second[-3:]) == [{"op": "PING", "i": 1}]


class TestFramingViolations:
    def test_oversized_frame_rejected(self):
        decoder = FrameDecoder(max_frame=64)
        huge = struct.pack(">I", 65)
        with pytest.raises(ProtocolError):
            decoder.feed(huge)

    def test_oversized_length_rejected_before_payload_arrives(self):
        """The length prefix alone triggers the rejection — the decoder
        never buffers an attacker-controlled amount of memory."""
        decoder = FrameDecoder(max_frame=64)
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", 2**31))

    def test_two_gigabyte_header_poisons_a_default_decoder(self):
        """A malicious 2 GiB length prefix (0x80000000) dies against the
        stock 8 MiB limit without allocating anything, and the decoder
        stays poisoned for the rest of the connection."""
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError) as excinfo:
            decoder.feed(struct.pack(">I", 0x80000000))
        assert str(DEFAULT_MAX_FRAME) in str(excinfo.value)
        # Only the 4-byte header was ever buffered — never the payload.
        assert decoder.pending_bytes <= LENGTH_BYTES
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame({"op": "PING"}))

    def test_eof_mid_frame_is_deterministic_connection_closed(self):
        """A peer dying mid-frame surfaces as ConnectionClosed — never a
        hang waiting for bytes that will not come, never a partial op —
        and poisons the decoder so a late feed cannot quietly resume and
        misparse the stream."""
        frame = encode_frame({"op": "PING"})
        decoder = FrameDecoder()
        assert decoder.feed(frame[:7]) == []  # prefix + truncated payload
        with pytest.raises(ConnectionClosed, match="mid-frame"):
            decoder.feed_eof()
        with pytest.raises(ConnectionClosed):
            decoder.feed(frame[7:])  # poisoned: the late bytes are dead

    def test_eof_inside_length_prefix_is_connection_closed(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"\x00\x00") == []  # 2 of the 4 length bytes
        with pytest.raises(ConnectionClosed):
            decoder.feed_eof()

    def test_eof_at_frame_boundary_is_clean(self):
        """EOF between frames is an orderly shutdown: no error, and the
        decoder stays usable (tests reuse it; real wires do not)."""
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame({"op": "PING"})) == [{"op": "PING"}]
        decoder.feed_eof()  # no buffered bytes: no-op
        assert decoder.feed(encode_frame({"op": "PING"})) == [{"op": "PING"}]

    def test_max_frame_is_configurable_at_the_boundary(self):
        """A payload of exactly ``max_frame`` bytes decodes; one byte more
        is rejected by an otherwise identical decoder."""
        payload = b'{"op": "%s"}' % (b"x" * 20)
        limit = len(payload)
        frame = struct.pack(">I", limit) + payload
        assert FrameDecoder(max_frame=limit).feed(frame) == [
            {"op": "x" * 20}
        ]
        with pytest.raises(ProtocolError):
            FrameDecoder(max_frame=limit - 1).feed(frame)

    def test_two_replies_in_one_read_are_a_violation(self):
        """A blocking reader has one request in flight: a second whole
        frame arriving with the first was not asked for."""
        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.sendall(encode_frame({"ok": True}) * 2)
            with pytest.raises(ProtocolError, match="2 frames"):
                read_frame_sync(ours)

    def test_zero_length_frame_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", 0))

    def test_garbage_payload_rejected(self):
        payload = b"\xff\xfenot json"
        data = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(data)

    def test_non_object_json_rejected(self):
        payload = b"[1, 2, 3]"
        data = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(data)

    def test_decoder_poisoned_after_violation(self):
        """After one violation every further feed re-raises: a desynced
        byte stream can never be re-trusted mid-connection."""
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", 0))
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame({"op": "PING"}))  # well-formed, still dead

    def test_check_length_bounds(self):
        assert check_length(1) == 1
        assert check_length(DEFAULT_MAX_FRAME) == DEFAULT_MAX_FRAME
        with pytest.raises(ProtocolError):
            check_length(0)
        with pytest.raises(ProtocolError):
            check_length(DEFAULT_MAX_FRAME + 1)

    def test_decode_payload_rejects_non_json(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"{truncated")
        with pytest.raises(ProtocolError):
            decode_payload(b'"a bare string"')


class TestRequestOps:
    def test_cluster_and_maintenance_ops_are_registered(self):
        for op in ("VACUUM", "PREPARE_2PC", "COMMIT_2PC", "ABORT_2PC"):
            assert op in REQUEST_OPS

    def test_ops_are_unique(self):
        assert len(REQUEST_OPS) == len(set(REQUEST_OPS))


class TestErrorRoundTrip:
    @pytest.mark.parametrize(
        "exc_type",
        [SerializationFailure, SsiAbort, ApplicationRollback, ConnectionClosed],
    )
    def test_error_class_survives_the_wire(self, exc_type):
        payload = error_payload(exc_type("boom"))
        assert payload["ok"] is False
        assert payload["error"]["code"] == exc_type.code
        with pytest.raises(exc_type) as excinfo:
            raise_error_payload(payload["error"])
        assert "boom" in str(excinfo.value)

    def test_subclass_code_wins(self):
        """``SsiAbort`` must not round-trip as its ``SerializationFailure``
        base — retry policies distinguish them."""
        payload = error_payload(SsiAbort("cert failure"))
        assert payload["error"]["code"] == "ssi"
        with pytest.raises(SsiAbort):
            raise_error_payload(payload["error"])

    def test_unknown_code_degrades_to_repro_error(self):
        with pytest.raises(ReproError):
            raise_error_payload({"code": "no-such-code", "message": "hm"})

    def test_malformed_error_payload_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            raise_error_payload(None)
        with pytest.raises(ProtocolError):
            raise_error_payload("not a mapping")

    def test_frame_survives_encode_decode(self):
        payload = error_payload(SerializationFailure("w-w conflict on x=7"))
        (decoded,) = FrameDecoder().feed(encode_frame(payload))
        with pytest.raises(SerializationFailure):
            raise_error_payload(decoded["error"])
