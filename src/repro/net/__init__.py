"""``repro.net`` — the network service layer (DESIGN.md §11).

Server side: :class:`DatabaseServer` hosts one
:class:`~repro.engine.engine.Database` behind a length-prefixed JSON
protocol over TCP.  Client side: the classes come from
:mod:`repro.net.client` (not re-exported here, so a server process never
imports them): :class:`~repro.net.client.NetworkConnection` implements
the :class:`repro.api.Connection` facade over a pool of framed sockets,
so ``repro.connect("tcp://host:port")`` is a drop-in replacement for the
in-process backend.

The protocol itself (framing, operations, error round-trip) lives in
:mod:`repro.net.protocol`.
"""

from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    REQUEST_OPS,
    FrameDecoder,
    decode_payload,
    encode_frame,
)
from repro.net.server import DatabaseServer

__all__ = [
    "DatabaseServer",
    "DEFAULT_MAX_FRAME",
    "FrameDecoder",
    "REQUEST_OPS",
    "decode_payload",
    "encode_frame",
]
