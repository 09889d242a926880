"""DatabaseServer lifecycle, admission and robustness tests.

Everything here runs a real server on a loopback ephemeral port (event
loop on a daemon thread) and talks to it over real sockets — the same
configuration ``benchmarks/bench_net.py`` measures.  The load-bearing
assertion is the robustness contract: a client that vanishes
mid-transaction must have its transaction aborted and its locks released
before anyone else blocks on them, and nothing may leak.
"""

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.engine import EngineConfig
from repro.errors import ConnectionClosed, ProtocolError
from repro.net import DatabaseServer
from repro.net.client import WireConnection
from repro.net.protocol import FrameDecoder, encode_frame, read_frame_sync
from repro.smallbank import (
    BALANCE,
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
)


def make_server(config=None, **kwargs):
    db = build_database(
        config or EngineConfig.postgres(), PopulationConfig(customers=10)
    )
    return DatabaseServer(db, **kwargs).start_in_thread()


def wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


class TestLifecycle:
    def test_start_serve_shutdown(self):
        server = make_server()
        try:
            conn = repro.connect(f"tcp://127.0.0.1:{server.port}")
            assert conn.ping()
            stats = conn.stats()
            assert stats["backend"] == "network"
            assert stats["isolation"] == "si"
            assert stats["connections_active"] >= 1
            conn.close()
        finally:
            server.shutdown()
        assert server.stats()["connections_active"] == 0

    def test_stats_reports_engine_isolation(self):
        """Clients gate wire shortcuts on this field — it must track the
        hosted engine, not a default."""
        server = make_server(EngineConfig.s2pl())
        try:
            conn = repro.connect(f"tcp://127.0.0.1:{server.port}")
            assert conn.stats()["isolation"] == "s2pl"
            conn.close()
        finally:
            server.shutdown()

    def test_double_start_rejected(self):
        server = make_server()
        try:
            with pytest.raises(RuntimeError):
                server.start_in_thread()
        finally:
            server.shutdown()

    def test_shutdown_aborts_in_flight_transaction(self):
        server = make_server()
        wire = WireConnection("127.0.0.1", server.port)
        wire.call("BEGIN", {"label": "doomed"})
        wire.call("SELECT_FOR_UPDATE", {"table": "Saving", "key": 1})
        assert server.stats()["active_transactions"] == 1
        server.shutdown()  # must not hang on the open transaction
        assert server.stats()["active_transactions"] == 0
        assert server.stats()["connections_active"] == 0
        wire.close()

    def test_stop_served_before_its_own_wake_up_is_sent(self):
        """``shutdown`` posts the stop, then wakes the loop — but any
        other wake-up can get there first, so the loop may serve the stop
        and end before ``shutdown`` has sent its own.  Forced here: the
        caller's wake-up waits for a disconnect to do just that."""
        server = make_server()
        wire = WireConnection("127.0.0.1", server.port)
        assert wire.call("PING", {})["pong"]
        loop_thread, caller, real = server._thread, threading.get_ident(), server._wake_send

        class LateWakeUp:
            def send(self, data):
                if threading.get_ident() == caller:
                    wire.close()  # EOF wakes the loop, which serves the stop
                    wait_until(
                        lambda: not loop_thread.is_alive(),
                        message="the loop to serve the stop and end",
                    )
                return real.send(data)

            def close(self):
                real.close()

        server._wake_send = LateWakeUp()
        server.shutdown()
        stats = server.stats()
        assert stats["connections_active"] == 0
        assert stats["sessions_opened"] == stats["sessions_closed"] == 1

    def test_sessions_do_not_leak(self):
        server = make_server()
        try:
            conn = repro.connect(f"tcp://127.0.0.1:{server.port}", pool_size=2)
            for _ in range(5):
                session = conn.session()
                session.begin("t")
                session.select("Saving", 1)
                session.commit()
                session.close()
            conn.close()
            wait_until(
                lambda: server.stats()["connections_active"] == 0,
                message="connection reaping",
            )
            stats = server.stats()
            assert stats["sessions_opened"] == stats["sessions_closed"]
            assert stats["active_transactions"] == 0
        finally:
            server.shutdown()


class TestDisconnectMidTransaction:
    def test_abrupt_disconnect_aborts_and_releases_locks(self):
        """The tentpole robustness contract: kill a client that holds a
        row lock mid-transaction and the lock must free — a second
        session acquires it and commits, promptly, with no leak."""
        server = make_server()
        try:
            victim = WireConnection("127.0.0.1", server.port)
            victim.call("BEGIN", {"label": "doomed"})
            row = victim.call(
                "SELECT_FOR_UPDATE", {"table": "Saving", "key": 1}
            )["row"]
            assert row is not None
            assert server.stats()["active_transactions"] == 1

            victim.close()  # vanish without COMMIT/ROLLBACK

            wait_until(
                lambda: server.stats()["active_transactions"] == 0,
                message="server-side abort of the orphaned transaction",
            )
            # The row lock must be gone: a fresh session takes it and
            # writes through without blocking.
            conn = repro.connect(f"tcp://127.0.0.1:{server.port}")
            session = conn.session()
            session.begin("survivor")
            fresh = session.select_for_update("Saving", 1)
            assert fresh is not None
            session.write("Saving", 1, {**fresh, "Balance": 42.0})
            session.commit()
            session.close()
            conn.close()
            wait_until(
                lambda: server.stats()["connections_active"] == 0,
                message="connection reaping",
            )
            stats = server.stats()
            assert stats["active_transactions"] == 0
            assert stats["sessions_opened"] == stats["sessions_closed"]
        finally:
            server.shutdown()

    def test_disconnect_with_pipelined_writes_rolls_back(self):
        """Fire-and-forget frames followed by EOF: the staged write must
        not survive (EOF ≡ rollback, never an implicit commit)."""
        server = make_server()
        try:
            raw = socket.create_connection(("127.0.0.1", server.port))
            raw.sendall(encode_frame({"op": "BEGIN", "label": "torn"}))
            raw.sendall(
                encode_frame(
                    {
                        "op": "WRITE",
                        "table": "Saving",
                        "key": 1,
                        "row": {"CustomerId": 1, "Balance": -999.0},
                    }
                )
            )
            raw.close()  # EOF before any COMMIT
            wait_until(
                lambda: server.stats()["active_transactions"] == 0,
                message="rollback of the torn transaction",
            )
            conn = repro.connect(f"tcp://127.0.0.1:{server.port}")
            session = conn.session()
            session.begin("reader")
            row = session.select("Saving", 1)
            session.commit()
            session.close()
            conn.close()
            assert row["Balance"] != -999.0
        finally:
            server.shutdown()


class TestAdmission:
    def test_backpressure_parks_then_serves(self):
        server = make_server(max_connections=1, backpressure=True)
        try:
            first = WireConnection("127.0.0.1", server.port)
            assert first.call("PING", {})["pong"]
            second = WireConnection("127.0.0.1", server.port)
            # Parked: the request sits unread until a slot frees.
            second.sock.sendall(encode_frame({"op": "PING"}))
            wait_until(
                lambda: server.stats()["connections_parked"] == 1,
                message="second connection to park",
            )
            first.close()
            # Admitted: the queued frame is served.
            assert read_frame_sync(second.sock)["pong"]
            second.close()
        finally:
            server.shutdown()

    def test_reject_mode_refuses_over_capacity(self):
        server = make_server(max_connections=1, backpressure=False)
        try:
            first = WireConnection("127.0.0.1", server.port)
            assert first.call("PING", {})["pong"]
            second = WireConnection("127.0.0.1", server.port)
            with pytest.raises(ConnectionClosed):
                second.call("PING", {})
            assert server.stats()["rejected_total"] == 1
            first.close()
            second.close()
        finally:
            server.shutdown()

    def test_max_connections_validation(self):
        db = build_database(
            EngineConfig.postgres(), PopulationConfig(customers=2)
        )
        with pytest.raises(ValueError):
            DatabaseServer(db, max_connections=0)


class TestProtocolViolations:
    def test_garbage_bytes_get_error_frame_then_close(self):
        server = make_server()
        try:
            raw = socket.create_connection(("127.0.0.1", server.port))
            raw.sendall(struct.pack(">I", 0))  # zero-length frame
            response = read_frame_sync(raw, max_frame=server.max_frame)
            assert response is not None and response["ok"] is False
            assert response["error"]["code"] == "protocol"
            # The server hangs up after the error frame.
            assert read_frame_sync(raw, max_frame=server.max_frame) is None
            raw.close()
            wait_until(
                lambda: server.stats()["connections_active"] == 0,
                message="poisoned connection reaping",
            )
            assert server.stats()["protocol_errors_total"] >= 1
        finally:
            server.shutdown()

    def test_oversized_frame_kills_only_that_connection(self):
        server = make_server(max_frame=1024)
        try:
            raw = socket.create_connection(("127.0.0.1", server.port))
            raw.sendall(struct.pack(">I", 1 << 30))
            decoder = FrameDecoder()  # client-side default limit is fine
            chunk = raw.recv(65536)
            (response,) = decoder.feed(chunk)
            assert response["ok"] is False
            raw.close()
            # An unrelated connection is unaffected.
            healthy = WireConnection("127.0.0.1", server.port)
            assert healthy.call("PING", {})["pong"]
            healthy.close()
        finally:
            server.shutdown()

    def test_unknown_op_is_an_error_response_not_a_hangup(self):
        server = make_server()
        try:
            wire = WireConnection("127.0.0.1", server.port)
            with pytest.raises(ProtocolError):
                wire.call("FROBNICATE", {})
            assert wire.call("PING", {})["pong"]  # connection still usable
            wire.close()
        finally:
            server.shutdown()

    def test_missing_field_is_an_error_response(self):
        server = make_server()
        try:
            wire = WireConnection("127.0.0.1", server.port)
            wire.call("BEGIN", {})
            with pytest.raises(ProtocolError):
                wire.call("READ", {"table": "Saving"})  # no key
            wire.call("ROLLBACK", {})
            wire.close()
        finally:
            server.shutdown()

    def test_deeply_nested_frame_kills_only_that_connection(self):
        """A few kilobytes of ``[`` — far inside ``max_frame`` — make the C
        JSON scanner raise ``RecursionError``, which is no ``ValueError``:
        a framing error like any other, not the end of the loop thread."""
        server = make_server()
        try:
            healthy = WireConnection("127.0.0.1", server.port)
            raw = socket.create_connection(("127.0.0.1", server.port))
            payload = b'{"a":' + b"[" * 5000
            raw.sendall(struct.pack(">I", len(payload)) + payload)
            response = read_frame_sync(raw, max_frame=server.max_frame)
            assert response["ok"] is False
            assert response["error"]["code"] == "protocol"
            assert read_frame_sync(raw, max_frame=server.max_frame) is None
            raw.close()
            assert healthy.call("PING", {})["pong"]
            healthy.close()
        finally:
            server.shutdown()
        stats = server.stats()
        assert stats["protocol_errors_total"] == 1
        assert stats["sessions_opened"] == stats["sessions_closed"] == 2

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
    def test_payload_that_is_not_plain_utf8_is_a_framing_error(self, encoding):
        """The wire is UTF-8 without a byte-order mark (what ``encode_frame``
        writes); ``json.loads`` on bytes would have sniffed these three."""
        server = make_server()
        try:
            raw = socket.create_connection(("127.0.0.1", server.port))
            payload = '{"op": "PING"}'.encode(encoding)
            raw.sendall(struct.pack(">I", len(payload)) + payload)
            response = read_frame_sync(raw, max_frame=server.max_frame)
            assert response["ok"] is False
            assert response["error"]["code"] == "protocol"
            assert read_frame_sync(raw, max_frame=server.max_frame) is None
            raw.close()
        finally:
            server.shutdown()

    def test_exception_on_the_loop_thread_costs_one_connection(self, capsys):
        """Whatever escapes the loop's own work — here a decoder that
        breaks, then a posted callback that does — is reported and costs
        at most the connection it served; the loop thread goes on."""
        server = make_server()
        try:
            healthy = WireConnection("127.0.0.1", server.port)
            assert healthy.call("PING", {})["pong"]
            doomed = WireConnection("127.0.0.1", server.port)
            assert doomed.call("PING", {})["pong"]

            def broken_feed(data):
                raise RuntimeError("decoder bug")

            victim = server._connections[max(server._connections)]  # the newer one
            victim.decoder.feed = broken_feed
            doomed.send("PING", {})
            with pytest.raises(ConnectionClosed):
                doomed.receive()
            doomed.close()
            server._post(broken_feed, b"")
            assert healthy.call("PING", {})["pong"]
            healthy.close()
        finally:
            server.shutdown()
        assert capsys.readouterr().err.count("RuntimeError: decoder bug") == 2
        stats = server.stats()
        assert stats["sessions_opened"] == stats["sessions_closed"] == 2


BIG_FRAME = 64 * 1024 * 1024


def wide_table_server():
    """A server whose ``SCAN Account`` reply (~12 MB: 100 rows whose
    60 kB name is both key and column) is more than the kernel buffers of
    a loopback connection hold, so a client that does not read it leaves
    the server with bytes it cannot send."""
    server = make_server(max_frame=BIG_FRAME)
    wire = WireConnection("127.0.0.1", server.port)
    wire.call("BEGIN", {"label": "widen"})
    for i in range(100):
        row = {"Name": f"{i:03d}" + "x" * 60_000, "CustomerId": 1000 + i}
        wire.call("INSERT", {"table": "Account", "row": row})
    wire.call("COMMIT", {})
    wire.close()
    return server


def slow_reader(server):
    """A connection that has asked for the big reply and reads none of it."""
    wire = WireConnection("127.0.0.1", server.port, max_frame=BIG_FRAME)
    wire.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 256 * 1024)
    wire.send("SCAN", {"table": "Account", "description": "everything", "begin": "wide"})
    return wire


class TestSlowReader:
    def test_unread_reply_waits_in_the_outbox_not_on_the_loop(self):
        server = wide_table_server()
        try:
            slow = slow_reader(server)
            wait_until(
                lambda: server.stats()["rpcs_total"] >= 103,
                message="the SCAN to be served",
            )
            # The loop thread is not stuck in that send: others are served.
            other = WireConnection("127.0.0.1", server.port, timeout=5.0)
            assert other.call("PING", {})["pong"]
            other.close()
            # ... and the reply arrives whole once its reader turns up.
            rows = slow.receive()["rows"]
            wide = [key for key, row in rows if len(key) > 60_000]
            assert len(rows) == 110 and len(wide) == 100
            assert all(row["Name"] == key for key, row in rows)
            assert sorted(key[:3] for key in wide) == [f"{i:03d}" for i in range(100)]
            slow.call("ROLLBACK", {})
            slow.close()
        finally:
            server.shutdown()

    def test_reader_that_vanishes_with_a_full_outbox_is_reaped(self):
        server = wide_table_server()
        try:
            slow = slow_reader(server)
            wait_until(
                lambda: server.stats()["rpcs_total"] >= 103,
                message="the SCAN to be served",
            )
            slow.close()  # megabytes of reply still unsent
            wait_until(
                lambda: server.stats()["connections_active"] == 0,
                message="reaping of the vanished reader",
            )
            stats = server.stats()
            assert stats["sessions_opened"] == stats["sessions_closed"] == 2
            assert stats["active_transactions"] == 0
        finally:
            server.shutdown()


def spawn_standalone(*options: str) -> subprocess.Popen:
    """``python -m repro.net`` once it has said LISTENING."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.net", "--customers", "5", *options],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    child.port = int(child.stdout.readline().split(b"LISTENING ")[1])
    return child


class TestStandaloneProcess:
    def test_parent_already_gone_is_a_clean_exit(self):
        """stdin at EOF and nobody reading stdout: the shard shuts down and
        the final ``STATS`` line, which has no reader, must cost neither a
        traceback nor the exit code."""
        child = spawn_standalone()
        try:
            child.stdout.close()
            child.stdin.close()
            assert child.wait(timeout=30) == 0
            assert child.stderr.read() == b""
        finally:
            child.kill()
            child.wait()
            child.stderr.close()

    def test_stdout_closed_while_stdin_is_open_is_a_clean_exit(self):
        """Nobody reads the reply to a control line: the parent is gone
        although our stdin is not at EOF yet.  Shut down gracefully, exit
        0, say nothing on stderr."""
        child = spawn_standalone()
        try:
            child.stdout.close()
            child.stdin.write(b"PING\n")
            child.stdin.flush()
            assert child.wait(timeout=30) == 0
            assert child.stderr.read() == b""
        finally:
            child.kill()
            child.wait()
            child.stdin.close()
            child.stderr.close()


    def test_obs_server_serves_pings_and_reports_stats(self):
        """``--obs`` is the one path on which a server imports
        ``repro.obs``: its hooks run on every connection and commit."""
        child = spawn_standalone("--obs")
        try:
            with repro.connect(f"tcp://127.0.0.1:{child.port}") as conn:
                session = conn.session()
                total = get_strategy("base-si").transactions().run(
                    session, BALANCE, {"N": customer_name(1)}
                )
                session.close()
                assert total > 0
            child.stdin.write(b"PING\n")
            child.stdin.flush()
            assert child.stdout.readline() == b"PONG\n"
            child.stdin.close()
            line = child.stdout.readline()
            assert line.startswith(b"STATS ")
            stats = json.loads(line[len(b"STATS "):])
            assert stats["connections_active"] == 0
            assert stats["active_transactions"] == 0
            assert stats["rpcs_total"] >= 1
            assert child.wait(timeout=30) == 0
            assert child.stderr.read() == b""
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
            child.stderr.close()


class TestNoAsyncioNoLeakedDescriptors:
    def test_importing_the_server_does_not_import_asyncio(self):
        """The server children of every tcp:// and cluster:// deployment
        start from this import; a fresh interpreter, so that nothing else
        this test process imported can hide (or cause) the answer."""
        probe = (
            "import sys, repro.net.server, repro.net.__main__; "
            "sys.exit('asyncio' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0
        sources = Path(repro.__file__).parent.rglob("*.py")
        assert [str(p) for p in sources if "import asyncio" in p.read_text()] == []

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_shutdown_closes_every_descriptor_the_loop_opened(self):
        """Listener, selector, wake-up pair, admitted and parked sockets:
        nobody warns about the ones a hand-written loop forgets."""
        before = len(os.listdir("/proc/self/fd"))
        server = make_server(max_connections=1)
        admitted = WireConnection("127.0.0.1", server.port)
        assert admitted.call("PING", {})["pong"]
        parked = WireConnection("127.0.0.1", server.port)
        wait_until(
            lambda: server.stats()["connections_parked"] == 1,
            message="second connection to park",
        )
        server.shutdown()
        admitted.close()
        parked.close()
        assert len(os.listdir("/proc/self/fd")) == before


class TestCountersAreExact:
    def test_worker_and_inline_rpcs_are_all_counted(self):
        """With ``CALL``s joining open transactions and ``PING``s in
        flight from many connections, ``rpcs_total`` must equal the number
        of requests sent — no lost update (before ISSUE 26 the joining
        ``CALL``s ran on worker threads, which kept tallies of their own)."""
        program = get_strategy("base-si").transactions()._calls[
            BALANCE
        ].statement.program
        workers, pingers, calls, pings = 6, 3, 150, 400
        server = make_server()
        sent = [0] * (workers + pingers)
        errors: list[BaseException] = []

        def worker(slot):
            wire = WireConnection("127.0.0.1", server.port)
            try:
                pid = wire.call(
                    "PREPARE_PROGRAM",
                    {"factory": program.factory, "spec": program.spec},
                )["pid"]
                wire.call("BEGIN", {})
                sent[slot] += 2
                for _ in range(calls):
                    wire.call(
                        "CALL",
                        {
                            "pid": pid,
                            "args": {"N": customer_name(slot + 1)},
                            "end": "open",
                        },
                    )
                    sent[slot] += 1
                wire.call("ROLLBACK", {})
                sent[slot] += 1
            except BaseException as exc:
                errors.append(exc)
            finally:
                wire.close()

        def pinger(slot):
            wire = WireConnection("127.0.0.1", server.port)
            try:
                for _ in range(pings):
                    wire.call("PING", {})
                    sent[slot] += 1
            except BaseException as exc:
                errors.append(exc)
            finally:
                wire.close()

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(workers)
        ] + [
            threading.Thread(target=pinger, args=(workers + slot,))
            for slot in range(pingers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors, errors
            # Live connections' worker tallies are part of the total ...
            total = sum(sent)
            assert total == workers * (calls + 3) + pingers * pings
            wait_until(
                lambda: server.stats()["connections_active"] == 0,
                message="connection reaping",
            )
            # ... and reaping folds them in without losing or doubling any.
            assert server.stats()["rpcs_total"] == total
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
        assert server.stats()["rpcs_total"] == total
