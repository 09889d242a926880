"""A blocked request parks on the server's loop (DESIGN.md §11, §11.5).

The server has one thread.  A request that would wait for a row lock is
undone and held at the head of its connection's queue; its blockers'
resolution callbacks wake it, a ``lock_timeout`` deadline answers
``LockTimeout``.  Checked here: no thread per blocked connection (on the
server or in the router's sweeps), the timeout, the deadlock detector
through a parked transaction, a crash and a disconnect while parked, and
the one thing parking cannot do — re-run a CALL that joined a touched
transaction and staged a write before it blocked.
"""

import threading
import time

import pytest

from repro.api import connect
from repro.cluster import Cluster
from repro.engine import EngineConfig
from repro.errors import (
    ConnectionClosed,
    DatabaseCrashed,
    DeadlockError,
    LockTimeout,
    TransactionAborted,
)
from repro.net import DatabaseServer
from repro.net.client import NetworkConnection, WireConnection
from repro.net.shard import ThreadShard
from repro.obs import Observability
from repro.smallbank import (
    AMALGAMATE,
    DEPOSIT_CHECKING,
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
)

POPULATION = PopulationConfig(customers=8, seed=42)


def wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


def serve(config=None, **kwargs):
    db = build_database(config or EngineConfig.postgres(), POPULATION)
    return DatabaseServer(db, **kwargs).start_in_thread()


@pytest.fixture
def server():
    server = serve()
    yield server
    server.shutdown()


def program_of(strategy, name):
    return get_strategy(strategy).transactions()._calls[name].statement.program


def pid_of(port, program):
    wire = WireConnection("127.0.0.1", port)
    try:
        return wire.call(
            "PREPARE_PROGRAM", {"factory": program.factory, "spec": program.spec}
        )["pid"]
    finally:
        wire.close()


def parked(server):
    return server.stats()["parked_total"]


def thread_names(prefix):
    return [t.name for t in threading.enumerate() if t.name.startswith(prefix)]


def hold(conn, table, key):
    holder = conn.session()
    holder.begin("holder")
    assert holder.select_for_update(table, key) is not None
    return holder


class TestOneThread:
    def test_eight_parked_calls_take_no_thread(self, server):
        deposit = program_of("base-si", DEPOSIT_CHECKING)
        pid = pid_of(server.port, deposit)
        with connect(f"tcp://127.0.0.1:{server.port}") as conn:
            with conn.transaction("before") as txn:
                before = txn.select("Checking", 1)["Balance"]
            holder = hold(conn, "Checking", 1)
            wires = [WireConnection("127.0.0.1", server.port) for _ in range(8)]
            rpcs = server.stats()["rpcs_total"]
            try:
                for wire in wires:
                    wire.send(
                        "CALL",
                        {"pid": pid, "args": {"N": customer_name(1), "V": 1.0}},
                    )
                wait_until(lambda: parked(server) == 8, message="eight parks")
                assert thread_names("repro-net-conn-") == []
                assert server.stats()["rpcs_total"] == rpcs  # none answered
                holder.commit()
                holder.close()
                # Each re-run is restarted at its own snapshot, so the
                # first to commit wins and first-updater-wins aborts the
                # rest: every CALL is answered, each applied at most once.
                committed = 0
                for wire in wires:
                    try:
                        wire.receive()
                        committed += 1
                    except TransactionAborted:
                        pass
            finally:
                for wire in wires:
                    wire.close()
            assert committed >= 1
            with conn.transaction("after") as txn:
                assert txn.select("Checking", 1)["Balance"] == before + committed
        assert server.stats()["active_transactions"] == 0

    def test_router_sweeps_with_a_shard_down_take_no_thread(self):
        with Cluster(2, customers=4) as cluster:
            with cluster.connect(rpc_deadline=0.5) as conn:
                assert conn.ping()  # prime every wire
                cluster.crash_shard(1)
                started = time.perf_counter()
                stats = conn.stats()
                assert time.perf_counter() - started < 2.0
                assert stats["shard_stats"][1]["unreachable"]
                started = time.perf_counter()
                assert conn.heartbeat(deadline=0.5) == [True, False]
                assert time.perf_counter() - started < 2.0
                started = time.perf_counter()
                with pytest.raises(ConnectionClosed):
                    conn.vacuum()
                assert time.perf_counter() - started < 2.0
                assert thread_names("repro-fanout") == []


class TestLockTimeout:
    def test_timeout_answers_lock_timeout_and_aborts(self):
        obs = Observability()
        server = serve(EngineConfig.postgres().with_lock_timeout(0.2), obs=obs)
        try:
            pid = pid_of(server.port, program_of("base-si", DEPOSIT_CHECKING))
            with connect(f"tcp://127.0.0.1:{server.port}") as conn:
                holder = hold(conn, "Checking", 1)
                victim = WireConnection("127.0.0.1", server.port)
                try:
                    started = time.monotonic()
                    with pytest.raises(LockTimeout):
                        victim.call(
                            "CALL",
                            {"pid": pid, "args": {"N": customer_name(1), "V": 1.0}},
                        )
                    assert 0.2 <= time.monotonic() - started < 1.0
                    assert victim.call("PING", {})["pong"]  # the wire lives on
                finally:
                    victim.close()
                holder.rollback()
                holder.close()
            stats = server.stats()
            assert stats["lock_timeouts_total"] == 1
            assert stats["parked_total"] == 1
            assert 0.2 <= stats["lock_wait_seconds_total"] < 1.0
            assert stats["active_transactions"] == 0
            aborts = obs.metrics.counter(
                "repro_txn_aborts_total", labels={"reason": "lock-timeout"}
            )
            assert aborts.value == 1
            # One observation per wait, spanning the park: not one more
            # for the attempt that found the lock held.
            assert obs.lock_wait.count == 1 and obs.lock_wait.sum >= 0.2
            assert obs.lock_timeouts.value == 1
        finally:
            server.shutdown()


class TestDeadlock:
    def test_cycle_through_a_parked_transaction_is_detected(self, server):
        a = WireConnection("127.0.0.1", server.port)
        b = WireConnection("127.0.0.1", server.port)
        try:
            for wire, key in ((a, 1), (b, 2)):
                wire.call("BEGIN", {"label": f"t{key}"})
                wire.call("SELECT_FOR_UPDATE", {"table": "Saving", "key": key})
            a.send("SELECT_FOR_UPDATE", {"table": "Saving", "key": 2})
            wait_until(lambda: parked(server) == 1, message="a to park")
            with pytest.raises(DeadlockError):
                b.call("SELECT_FOR_UPDATE", {"table": "Saving", "key": 1})
            assert a.receive()["row"] is not None  # woken by b's abort
            a.call("COMMIT", {})
        finally:
            a.close()
            b.close()
        assert server.stats()["active_transactions"] == 0


class TestCrashWhileParked:
    def test_parked_call_answers_database_crashed(self):
        shard = ThreadShard(customers=8, record=False)
        try:
            deposit = program_of("base-si", DEPOSIT_CHECKING)
            args = {"N": customer_name(1), "V": 1.0}
            pid = pid_of(shard.port, deposit)
            with connect(f"tcp://127.0.0.1:{shard.port}") as conn:
                holder = hold(conn, "Checking", 1)
                victim = WireConnection("127.0.0.1", shard.port)
                try:
                    victim.send("CALL", {"pid": pid, "args": args})
                    wait_until(
                        lambda: shard.server.stats()["parked_total"] == 1,
                        message="the CALL to park",
                    )
                    shard.db.crash()  # fires every resolution callback
                    with pytest.raises(DatabaseCrashed):
                        victim.receive()
                    assert victim.call("PING", {})["pong"]
                finally:
                    victim.close()
                holder.close()
            shard.crash()
            shard.recover()
            with connect(f"tcp://127.0.0.1:{shard.port}") as conn:
                session = conn.session()
                try:
                    get_strategy("base-si").transactions().run(
                        session, DEPOSIT_CHECKING, args
                    )
                finally:
                    session.close()
        finally:
            shard.shutdown()


class TestDisconnectWhileParked:
    def test_locks_free_at_once_and_the_late_wake_up_is_stale(
        self, server, capsys
    ):
        with connect(f"tcp://127.0.0.1:{server.port}") as conn:
            holder = hold(conn, "Checking", 2)
            victim = WireConnection("127.0.0.1", server.port)
            victim.call("BEGIN", {"label": "doomed"})
            victim.call("SELECT_FOR_UPDATE", {"table": "Checking", "key": 1})
            victim.send("SELECT_FOR_UPDATE", {"table": "Checking", "key": 2})
            wait_until(lambda: parked(server) == 1, message="the victim to park")
            victim.close()
            # Reaped at once, while the holder still holds Checking[2].
            wait_until(
                lambda: server.stats()["sessions_closed"] == 1,
                message="reaping of the vanished connection",
            )
            assert server.stats()["active_transactions"] == 1  # the holder
            with conn.transaction("probe") as txn:  # Checking[1] is free
                assert txn.select_for_update("Checking", 1) is not None
            rpcs = server.stats()["rpcs_total"]
            holder.commit()  # fires the victim's wake-up
            assert conn.ping()  # a round trip behind it on the loop
            holder.close()
            stats = server.stats()
            assert stats["rpcs_total"] - rpcs == 2  # COMMIT and PING only
            assert stats["parked_total"] == 1
            assert stats["active_transactions"] == 0
        assert "Traceback" not in capsys.readouterr().err


class TestTouchedJoin:
    def test_blocked_after_staging_a_write_aborts(self):
        """materialize-all Amalgamate writes Conflict[1], then blocks on
        Conflict[2].  Joined to a transaction that had already read, the
        CALL cannot be restarted, and re-run as it stands it would write
        Conflict[1] twice: the transaction is aborted instead."""
        server = serve()
        try:
            # A deadline: a CALL that waited here instead would hang the test.
            with NetworkConnection("127.0.0.1", server.port, rpc_deadline=5.0) as conn:
                holder = hold(conn, "Conflict", 2)
                session = conn.session()
                try:
                    session.begin("touched")
                    assert session.select("Saving", 5) is not None
                    with pytest.raises(
                        TransactionAborted, match="after staging writes"
                    ):
                        session.call_program(
                            program_of("materialize-all", AMALGAMATE),
                            {"N1": customer_name(1), "N2": customer_name(2)},
                            end="open",
                        )
                    assert not session.in_transaction
                    assert server.stats()["active_transactions"] == 1  # holder
                    assert server.stats()["parked_total"] == 0
                finally:
                    session.close()
                    holder.rollback()
                    holder.close()
            assert server.stats()["active_transactions"] == 0
        finally:
            server.shutdown()
