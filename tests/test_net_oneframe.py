"""A remote call is one frame at each end of the wire (DESIGN.md §11).

The server answers a read that was exactly one whole request, on a
connection with nothing queued, parked or unsent and no fault plan, in
``_on_readable`` itself, and sends the reply straight from there.  Every
other read — a burst, a fragment, a frame with part of the next, a
request behind a parked one, a fault plan, the rest of a short send —
goes through the queue (``_pump`` → ``_deliver`` → ``_flush``).  Each
case below must answer exactly as a server that queues everything does
(one with an empty :class:`~repro.faults.FaultPlan` installed), in
order.

The client's :meth:`~repro.net.client.WireConnection.call` decodes a
reply that arrives as one whole frame in its own frame; anything else
goes through the wire's decoder with the errors it had
(``test_net_codec.py::TestClientReads``), and an ``unknown program id``
answer still clears the session's id caches.
"""

from __future__ import annotations

import select
import socket
import threading
import time

import pytest

import repro
from repro.engine import EngineConfig
from repro.errors import ConnectionClosed
from repro.faults import FaultPlan, FaultSpec
from repro.net import DatabaseServer
from repro.net.client import WireConnection
from repro.net.protocol import FrameDecoder, encode_request
from repro.smallbank import (
    BALANCE,
    DEPOSIT_CHECKING,
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
)
from repro.smallbank.transactions import GET_SAVING

BEGIN = encode_request("BEGIN", {"label": "frames"})
READ = encode_request("READ", {"table": "Saving", "key": 1})
COMMIT = encode_request("COMMIT", {})
PING = encode_request("PING", {})


def make_server(plan=None):
    """A fresh server on a fresh 10-customer bank; ``plan`` installed."""
    db = build_database(EngineConfig.postgres(), PopulationConfig(customers=10))
    return DatabaseServer(db, fault_plan=plan).start_in_thread()


def count_pumps(server):
    """How often the server's loop queued what it read (``_pump``)."""
    pumps = [0]
    pump = server._pump

    def counted(conn):
        pumps[0] += 1
        pump(conn)

    server._pump = counted
    return pumps


def dial(server):
    raw = socket.create_connection(("127.0.0.1", server.port), timeout=10.0)
    raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return raw


def read_replies(raw, count, decoder=None):
    decoder = decoder or FrameDecoder()
    replies: list = []
    while len(replies) < count:
        data = raw.recv(65536)
        assert data, "server hung up"
        replies.extend(decoder.feed(data))
    return replies


def exchange(server, segments, count):
    """Send each of ``segments`` as its own write, a pause between, and
    read ``count`` replies."""
    raw = dial(server)
    try:
        for segment in segments:
            raw.sendall(segment)
            time.sleep(0.01)
        return read_replies(raw, count)
    finally:
        raw.close()


def both_ways(segments, count, plan=None):
    """The replies of a server that may answer in place (``plan``
    installed) and of one that queues everything, and how often the first
    one queued."""
    in_place, queued = make_server(plan), make_server(FaultPlan())
    try:
        pumps = count_pumps(in_place)
        return exchange(in_place, segments, count), exchange(queued, segments, count), pumps[0]
    finally:
        in_place.shutdown()
        queued.shutdown()


class TestServerAnswersAsTheQueueDoes:
    def test_whole_frames_one_read_each_are_answered_in_place(self):
        got, expected, pumps = both_ways([BEGIN, READ, COMMIT], 3)
        assert got == expected
        assert [reply["ok"] for reply in got] == [True] * 3
        assert got[1]["row"]["CustomerId"] == 1
        assert pumps == 0

    def test_two_frames_in_one_segment(self):
        got, expected, pumps = both_ways([BEGIN + READ, COMMIT], 3)
        assert got == expected
        assert pumps >= 1

    def test_a_frame_fed_one_byte_at_a_time(self):
        segments = [BEGIN[i : i + 1] for i in range(len(BEGIN))] + [READ, COMMIT]
        got, expected, pumps = both_ways(segments, 3)
        assert got == expected
        assert pumps >= 1

    def test_a_whole_frame_followed_by_half_of_the_next(self):
        half = len(READ) // 2
        got, expected, pumps = both_ways([BEGIN + READ[:half], READ[half:], COMMIT], 3)
        assert got == expected
        assert pumps >= 1

    def test_a_delay_plan_sends_every_reply_through_the_queue(self):
        plan = FaultPlan([FaultSpec("net-delay-frame", max_fires=1, magnitude=0.05)])
        got, expected, pumps = both_ways([BEGIN, READ, COMMIT], 3, plan)
        assert got == expected
        assert plan.fired("net-delay-frame") == 1
        assert pumps == 3

    def test_a_parked_call_holds_the_request_pipelined_behind_it(self):
        """A CALL read whole parks on a row lock; a PING sent behind it on
        the same wire is answered only after it, once the lock frees."""
        program = (
            get_strategy("base-si").transactions()._calls[DEPOSIT_CHECKING].statement.program
        )

        def run(server):
            holder = WireConnection("127.0.0.1", server.port)
            pid = holder.call(
                "PREPARE_PROGRAM", {"factory": program.factory, "spec": program.spec}
            )["pid"]
            holder.call("BEGIN", {"label": "holder"})
            holder.call("SELECT_FOR_UPDATE", {"table": "Checking", "key": 1})
            raw = dial(server)
            try:
                call = {"pid": pid, "args": {"N": customer_name(1), "V": 5.0}, "label": "DC"}
                raw.sendall(encode_request("CALL", call))
                deadline = time.monotonic() + 5.0
                while server.stats()["parked_total"] == 0:
                    assert time.monotonic() < deadline, "the CALL never parked"
                    time.sleep(0.005)
                raw.sendall(PING)
                assert select.select([raw], [], [], 0.1)[0] == []  # nothing answered
                holder.call("ROLLBACK", {})
                return read_replies(raw, 2)
            finally:
                raw.close()
                holder.close()

        in_place, queued = make_server(), make_server(FaultPlan())
        try:
            pumps = count_pumps(in_place)
            got, expected = run(in_place), run(queued)
        finally:
            in_place.shutdown()
            queued.shutdown()
        assert got == expected == [{"result": None, "ok": True}, {"pong": True, "ok": True}]
        assert pumps[0] >= 1  # the PING queued behind the parked CALL

    def test_a_short_send_leaves_the_rest_to_the_outbox(self):
        """A socket whose ``send`` takes the first 5 bytes of the SCAN
        reply and then nothing until it is opened: the rest waits in the
        outbox, the COMMIT read meanwhile queues behind it, and both
        replies arrive whole and in order once ``_flush`` can write."""

        class ShortSends:
            def __init__(self, sock):
                self._sock = sock
                self.opened = threading.Event()
                self.first = True

            def send(self, data):
                if self.first:
                    self.first = False
                    return self._sock.send(bytes(data[:5]))
                if not self.opened.is_set():
                    raise BlockingIOError
                return self._sock.send(data)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        scan = encode_request("SCAN", {"table": "Saving", "description": "all"})

        def run(server):
            raw = dial(server)
            try:
                raw.sendall(BEGIN)
                (begun,) = read_replies(raw, 1)
                conn = server._connections[max(server._connections)]
                short = conn.sock = ShortSends(conn.sock)
                raw.sendall(scan)
                time.sleep(0.02)
                raw.sendall(COMMIT)
                time.sleep(0.02)
                assert conn.outbox  # the SCAN reply is still being written
                short.opened.set()
                return [begun, *read_replies(raw, 2)]
            finally:
                raw.close()

        in_place, queued = make_server(), make_server(FaultPlan())
        try:
            pumps = count_pumps(in_place)
            got, expected = run(in_place), run(queued)
        finally:
            in_place.shutdown()
            queued.shutdown()
        assert got == expected
        assert len(got[1]["rows"]) == 10 and got[2] == {"ok": True}
        assert pumps[0] == 1  # the COMMIT, behind the unsent reply
        assert in_place.stats()["sessions_opened"] == in_place.stats()["sessions_closed"]


class TestClientOneFrameCall:
    """A reply in pieces, two replies in one read and a server that
    closes mid-reply are ``test_net_codec.py::TestClientReads``' cases,
    which run through the same one-frame ``WireConnection.call``."""

    def test_an_unknown_program_id_clears_the_caches(self):
        """A pid the server never issued (as after a restart): the call
        surfaces ``ConnectionClosed``, the session's wire is discarded and
        both id caches are empty, so the next call registers afresh."""
        server = make_server()
        txns = get_strategy("base-si").transactions()
        try:
            with repro.connect(f"tcp://127.0.0.1:{server.port}") as conn:
                session = conn.session()
                args = {"N": customer_name(1)}
                txns.run(session, BALANCE, args)
                session.begin("read")
                GET_SAVING.execute(session, {"x": 1})
                session.commit()
                assert conn._pids and conn._sids
                for key in conn._pids:
                    conn._pids[key] += 1 << 31
                with pytest.raises(ConnectionClosed, match="unknown program id"):
                    txns.run(session, BALANCE, args)
                assert session._wire is None
                assert conn._pids == {} and conn._sids == {}
                session.close()
                session = conn.session()
                assert txns.run(session, BALANCE, args) > 0
                session.close()
        finally:
            server.shutdown()
        assert server.stats()["active_transactions"] == 0
