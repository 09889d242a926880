"""DatabaseServer lifecycle, admission and robustness tests.

Everything here runs a real server on a loopback ephemeral port (event
loop on a daemon thread) and talks to it over real sockets — the same
configuration ``benchmarks/bench_net.py`` measures.  The load-bearing
assertion is the robustness contract: a client that vanishes
mid-transaction must have its transaction aborted and its locks released
before anyone else blocks on them, and nothing may leak.
"""

import socket
import struct
import sys
import threading
import time

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


class TestCountersAreExact:
    def test_worker_and_inline_rpcs_are_all_counted(self):
        """``_serve`` runs on the loop thread and on every connection's
        worker thread.  A ``CALL`` joining an open transaction always takes
        the worker thread, a ``PING`` never does; with both kinds in
        flight from many connections, ``rpcs_total`` must still equal the
        number of requests sent — one writer per tally, no lost update."""
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
