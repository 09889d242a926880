"""One-RPC transaction programs over ``tcp://`` (DESIGN.md §11.5).

``SmallBankTransactions.run`` ships a committing program run as a single
``CALL`` frame; the server begins, runs the body next to the engine and
commits.  Checked here: the results and balances match ``local://``
under every strategy family, a ``CALL`` that blocks is applied exactly
once, business rollbacks arrive by class in one frame leaving nothing
open, a program id from an earlier server incarnation never runs
anything, and a client that vanishes mid-``CALL`` leaves no locks and no
writes behind.
"""

import threading
import time

import pytest

from repro.api import connect
from repro.engine import EngineConfig
from repro.errors import (
    ApplicationRollback,
    ConnectionClosed,
    LockNotAvailable,
    ProtocolError,
    TransactionAborted,
)
from repro.net import DatabaseServer
from repro.net.client import WireConnection
from repro.net.protocol import encode_frame
from repro.smallbank import (
    AMALGAMATE,
    BALANCE,
    DEPOSIT_CHECKING,
    TRANSACT_SAVING,
    WRITE_CHECK,
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
)

POPULATION = PopulationConfig(customers=8, seed=42)

SEQUENCE = [
    (DEPOSIT_CHECKING, {"N": customer_name(1), "V": 25.5}),
    (TRANSACT_SAVING, {"N": customer_name(2), "V": -40.0}),
    (BALANCE, {"N": customer_name(1)}),
    (WRITE_CHECK, {"N": customer_name(3), "V": 15.0}),
    (WRITE_CHECK, {"N": customer_name(4), "V": 1e9}),  # overdraft penalty
    (AMALGAMATE, {"N1": customer_name(1), "N2": customer_name(2)}),
    (BALANCE, {"N": customer_name(2)}),
    (BALANCE, {"N": customer_name(1)}),
]


def wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def server():
    db = build_database(EngineConfig.postgres(), POPULATION)
    server = DatabaseServer(db).start_in_thread()
    yield server
    server.shutdown()


@pytest.fixture
def conn(server):
    with connect(f"tcp://127.0.0.1:{server.port}") as conn:
        yield conn


def snapshot(connection):
    """Every balance and Conflict counter, through a fresh session."""
    with connection.transaction("audit") as txn:
        return {
            table: dict(txn.scan(table))
            for table in ("Saving", "Checking", "Conflict")
        }


def run(connection, strategy, program, args):
    session = connection.session()
    try:
        return get_strategy(strategy).transactions().run(session, program, args)
    finally:
        session.close()


class TestParity:
    @pytest.mark.parametrize(
        "strategy", ["base-si", "promote-all", "materialize-all"]
    )
    def test_programs_match_local_results_and_balances(self, conn, strategy):
        local = connect(
            "local://", database=build_database(EngineConfig.postgres(), POPULATION)
        )
        before = conn.stats()["rpcs_total"]
        for program, args in SEQUENCE:
            assert run(conn, strategy, program, args) == run(
                local, strategy, program, args
            ), program
        # One PREPARE_PROGRAM per distinct program, one CALL per run,
        # and the STATS read closing the measurement.
        rpcs = conn.stats()["rpcs_total"] - before
        assert rpcs == 5 + len(SEQUENCE) + 1
        assert snapshot(conn) == snapshot(local)

    def test_open_ended_call_leaves_the_transaction_to_the_caller(self, conn):
        program = get_strategy("base-si").transactions()._calls[
            DEPOSIT_CHECKING
        ].statement.program
        args = {"N": customer_name(5), "V": 10.0}
        before = snapshot(conn)["Checking"][5]["Balance"]
        session = conn.session()
        try:
            session.call_program(program, args, "open-ended", end="open")
            assert session.in_transaction
            session.rollback()
            assert snapshot(conn)["Checking"][5]["Balance"] == before
            session.begin("joined")  # deferred BEGIN: the CALL carries it
            session.call_program(program, args, end="open")
            session.commit()
        finally:
            session.close()
        assert snapshot(conn)["Checking"][5]["Balance"] == before + 10.0


class TestBlockedCall:
    """A CALL spans many engine operations: when one would block, the
    attempt is rolled back, parked, and the whole program re-run when
    the lock frees — never resumed half-way, never applied twice."""

    def _run_behind(self, conn, lock, strategy, program, args):
        """Run ``program`` while another session holds ``lock``; returns
        what the program raised (None if it committed)."""
        holder = conn.session()
        holder.begin("holder")
        assert holder.select_for_update(*lock) is not None
        outcome = []

        def call():
            try:
                run(conn, strategy, program, args)
                outcome.append(None)
            except Exception as exc:  # noqa: BLE001 - reported to the test
                outcome.append(exc)

        thread = threading.Thread(target=call)
        thread.start()
        time.sleep(0.2)
        assert thread.is_alive(), "the CALL did not wait for the row lock"
        holder.commit()  # lock-only SFU: the waiter proceeds, no conflict
        holder.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        return outcome[0]

    def test_block_on_the_first_write(self, conn):
        before = snapshot(conn)
        raised = self._run_behind(
            conn,
            ("Checking", 1),
            "base-si",
            DEPOSIT_CHECKING,
            {"N": customer_name(1), "V": 7.0},
        )
        assert raised is None
        after = snapshot(conn)
        assert after["Checking"][1]["Balance"] == pytest.approx(
            before["Checking"][1]["Balance"] + 7.0
        )

    def test_block_on_the_second_write_applies_the_first_once(self, conn):
        """materialize-all Amalgamate touches Conflict[x1] then
        Conflict[x2]: blocked on the second, the attempt has a staged
        write, which the plain-EXEC guard would abort as
        ``net-retry-unsafe``.  A CALL starts over instead."""
        before = snapshot(conn)
        raised = self._run_behind(
            conn,
            ("Conflict", 2),
            "materialize-all",
            AMALGAMATE,
            {"N1": customer_name(1), "N2": customer_name(2)},
        )
        assert raised is None
        after = snapshot(conn)
        for cid in (1, 2):
            assert (
                after["Conflict"][cid]["Value"]
                == before["Conflict"][cid]["Value"] + 1
            )
        moved = (
            before["Saving"][1]["Balance"] + before["Checking"][1]["Balance"]
        )
        assert after["Saving"][1]["Balance"] == 0
        assert after["Checking"][1]["Balance"] == 0
        assert after["Checking"][2]["Balance"] == pytest.approx(
            before["Checking"][2]["Balance"] + moved
        )
        assert conn.stats()["active_transactions"] == 0


class TestApplicationRollback:
    @pytest.mark.parametrize(
        "program, args",
        [
            (BALANCE, {"N": "nobody"}),
            (DEPOSIT_CHECKING, {"N": customer_name(1), "V": -5.0}),
            (TRANSACT_SAVING, {"N": customer_name(1), "V": -1e9}),
            (AMALGAMATE, {"N1": customer_name(1), "N2": "nobody"}),
        ],
    )
    def test_arrives_by_class_in_one_frame(self, conn, program, args):
        txns = get_strategy("base-si").transactions()
        session = conn.session()
        try:
            with pytest.raises(ApplicationRollback):  # registers the program
                txns.run(session, program, args)
            before = snapshot(conn)
            rpcs = conn.stats()["rpcs_total"]
            with pytest.raises(ApplicationRollback):
                txns.run(session, program, args)
            assert not session.in_transaction
            session.rollback()  # what drivers do next: costs no frame
            stats = conn.stats()
            assert stats["rpcs_total"] - rpcs == 1 + 1  # the CALL + STATS
            assert stats["active_transactions"] == 0
            assert snapshot(conn) == before
        finally:
            session.close()


class TestStaleProgramId:
    def test_id_from_an_earlier_incarnation_never_runs(self):
        """Restart on the same port with the programs registered in
        another order: the cached id must not hit whatever program took
        its dense index, it must fail retryably and then heal."""
        old = DatabaseServer(
            build_database(EngineConfig.postgres(), POPULATION)
        ).start_in_thread()
        port = old.port
        conn = connect(f"tcp://127.0.0.1:{port}")
        deposit = {"N": customer_name(1), "V": 5.0}
        try:
            run(conn, "base-si", DEPOSIT_CHECKING, deposit)  # learns pid #0
            old.shutdown()
            db = build_database(EngineConfig.postgres(), POPULATION)
            new = DatabaseServer(db, port=port).start_in_thread()
            try:
                with connect(f"tcp://127.0.0.1:{port}") as other:
                    # WriteCheck now sits on dense index 0.
                    run(
                        other,
                        "base-si",
                        WRITE_CHECK,
                        {"N": customer_name(2), "V": 1.0},
                    )
                    before = snapshot(other)
                    # Retryable failures only — first the pooled wire
                    # that died with `old`, then the stale id — and
                    # nothing runs until the id has been re-learnt.
                    failures = 0
                    while True:
                        try:
                            run(conn, "base-si", DEPOSIT_CHECKING, deposit)
                            break
                        except ConnectionClosed:
                            failures += 1
                            assert failures <= 2
                            assert snapshot(other) == before
                    assert failures == 2
                    after = snapshot(other)
                assert after["Checking"][1]["Balance"] == pytest.approx(
                    before["Checking"][1]["Balance"] + 5.0
                )
            finally:
                new.shutdown()
        finally:
            conn.close()
            old.shutdown()

    def test_unknown_id_and_factory_are_protocol_errors(self, server):
        wire = WireConnection("127.0.0.1", server.port)
        try:
            with pytest.raises(ProtocolError, match="unknown program id"):
                wire.call("CALL", {"pid": 0, "args": {}})
            with pytest.raises(ProtocolError, match="unknown program factory"):
                wire.call("PREPARE_PROGRAM", {"factory": "nope", "spec": "{}"})
            assert server.stats()["active_transactions"] == 0
        finally:
            wire.close()


class TestDisconnectMidCall:
    def test_vanished_client_leaves_no_locks_and_no_writes(self, server, conn):
        """The CALL holds Conflict[1] and waits for Conflict[2]; its
        client disappears.  Conflict[1] must free at once (not when the
        CALL's blocker lets go), and nothing the CALL did may survive."""
        program = get_strategy("materialize-all").transactions()._calls[
            AMALGAMATE
        ].statement.program
        before = snapshot(conn)
        holder = conn.session()
        holder.begin("holder")
        assert holder.select_for_update("Conflict", 2) is not None
        victim = WireConnection("127.0.0.1", server.port)
        pid = victim.call(
            "PREPARE_PROGRAM", {"factory": program.factory, "spec": program.spec}
        )["pid"]
        victim.sock.sendall(
            encode_frame(
                {
                    "op": "CALL",
                    "pid": pid,
                    "label": "doomed",
                    "args": {"N1": customer_name(1), "N2": customer_name(2)},
                }
            )
        )
        wait_until(
            lambda: server.stats()["active_transactions"] == 2,
            message="the CALL to begin and block",
        )
        time.sleep(0.1)
        victim.close()  # vanish without reading the response
        wait_until(
            lambda: server.stats()["active_transactions"] == 1,
            message="server-side abort of the orphaned CALL",
        )
        # Its first lock is free while its blocker still holds the second.
        with conn.transaction("probe") as txn:
            assert txn.select_for_update("Conflict", 1) is not None
        holder.commit()
        holder.close()
        wait_until(
            lambda: server.stats()["sessions_closed"] == 1,
            message="reaping of the vanished connection",
        )
        assert server.stats()["active_transactions"] == 0
        assert snapshot(conn) == before



def program_of(strategy, name):
    return get_strategy(strategy).transactions()._calls[name].statement.program


def dispatches(server):
    return server.stats()["parked_total"]


class TestJoiningCall:
    """A CALL joining the bare BEGIN the cluster router sends inside its
    snapshot window (``start_begin_now``) is attempted on the loop thread like
    one that begins its own transaction; blocked, the transaction is
    restarted *at its snapshot* and the program re-run after the park.
    Once the transaction has touched anything, a blocked joining CALL is
    parked as it stands — it waits if it staged nothing first."""

    CROSS = {"N1": customer_name(1), "N2": customer_name(2)}

    def _blocked(self, server, session, program, args, lock, release, **how):
        """``session.call_program`` behind another session's lock on
        ``lock``; once the call is seen parked, ``release(holder)`` lets
        go.  Returns (result, raised, the parks the call cost)."""
        holder = session._connection.session()
        holder.begin("holder")
        assert holder.select_for_update(*lock) is not None
        before = dispatches(server)
        outcome = []

        def call():
            try:
                result = session.call_program(program, args, **how)
                outcome.append((result, None))
            except Exception as exc:  # noqa: BLE001 - reported to the test
                outcome.append((None, exc))

        thread = threading.Thread(target=call)
        thread.start()
        wait_until(
            lambda: dispatches(server) == before + 1,
            message="the CALL to park",
        )
        time.sleep(0.1)
        assert thread.is_alive(), "the CALL did not wait for the row lock"
        release(holder)
        holder.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        return (*outcome[0], dispatches(server) - before)

    def test_untouched_and_uncontended_is_served_inline(self, server, conn):
        before = snapshot(conn)["Checking"][1]["Balance"]
        session = conn.session()
        try:
            session.start_begin_now("joined")()
            handed = dispatches(server)
            session.call_program(
                program_of("base-si", DEPOSIT_CHECKING),
                {"N": customer_name(1), "V": 4.0},
            )
            assert not session.in_transaction
            assert dispatches(server) == handed
        finally:
            session.close()
        assert snapshot(conn)["Checking"][1]["Balance"] == before + 4.0
        assert server.stats()["active_transactions"] == 0

    def test_blocked_after_a_write_waits_and_applies_it_once(self, server, conn):
        """Conflict[1] is written, Conflict[2] is held: the attempt is
        undone, the re-run waits parked, and when the holder
        aborts every write lands exactly once."""
        before = snapshot(conn)
        session = conn.session()
        try:
            session.start_begin_now("joined")()
            _result, raised, handed = self._blocked(
                server,
                session,
                program_of("materialize-all", AMALGAMATE),
                self.CROSS,
                ("Conflict", 2),
                lambda holder: holder.rollback(),
            )
        finally:
            session.close()
        assert raised is None and handed == 1
        after = snapshot(conn)
        for cid in (1, 2):
            assert (
                after["Conflict"][cid]["Value"]
                == before["Conflict"][cid]["Value"] + 1
            )
        moved = before["Saving"][1]["Balance"] + before["Checking"][1]["Balance"]
        assert after["Checking"][2]["Balance"] == pytest.approx(
            before["Checking"][2]["Balance"] + moved
        )
        assert server.stats()["active_transactions"] == 0

    def test_rerun_reads_the_snapshot_of_the_begin(self, server, conn):
        """Saving[3] grows twice after the BEGIN; the blocked WriteCheck
        is re-run after its park and a VACUUM passes meanwhile — it still
        reads the old Saving[3], so the overdraft penalty applies."""
        start = snapshot(conn)
        total = start["Saving"][3]["Balance"] + start["Checking"][3]["Balance"]
        pruned = []

        def vacuum_then_let_go(holder):
            pruned.append(conn.vacuum())
            holder.rollback()

        session = conn.session()
        try:
            session.start_begin_now("joined")()
            for _ in range(2):
                run(conn, "base-si", TRANSACT_SAVING, {"N": customer_name(3), "V": 100.0})
            # total < V <= total + 200: overdrawn at the old snapshot only.
            penalised, raised, handed = self._blocked(
                server,
                session,
                program_of("base-si", WRITE_CHECK),
                {"N": customer_name(3), "V": total + 50.0},
                ("Checking", 3),
                vacuum_then_let_go,
            )
        finally:
            session.close()
        assert raised is None and handed == 1
        assert penalised is True
        # With the snapshot out of the engine's sight even for a moment
        # the two older Saving[3] versions would have gone.
        assert pruned == [0]
        assert snapshot(conn)["Checking"][3]["Balance"] == pytest.approx(
            start["Checking"][3]["Balance"] - (total + 50.0) - 1.0
        )

    def test_rerun_still_loses_to_the_first_updater(self, server, conn):
        """Checking[3] is rewritten after the BEGIN.  A re-run on a fresh
        snapshot would slip past first-updater-wins; at the BEGIN's
        snapshot it must abort."""
        start = snapshot(conn)
        session = conn.session()
        try:
            session.start_begin_now("joined")()
            run(conn, "base-si", DEPOSIT_CHECKING, {"N": customer_name(3), "V": 5.0})
            _result, raised, handed = self._blocked(
                server,
                session,
                program_of("base-si", WRITE_CHECK),
                {"N": customer_name(3), "V": 1.0},
                ("Checking", 3),
                lambda holder: holder.rollback(),
            )
            assert isinstance(raised, TransactionAborted) and handed == 1
            assert not session.in_transaction
        finally:
            session.close()
        assert snapshot(conn)["Checking"][3]["Balance"] == pytest.approx(
            start["Checking"][3]["Balance"] + 5.0
        )
        assert server.stats()["active_transactions"] == 0

    def test_touched_transaction_is_served_inline_and_waits_parked(
        self, server, conn
    ):
        """begin, update, call_program: the update must not be lost to a
        restart, so a blocked CALL is parked as it stands — it staged
        nothing before it blocked — and uncontended it never parks."""
        start = snapshot(conn)
        deposit = program_of("base-si", DEPOSIT_CHECKING)
        session = conn.session()
        try:
            session.begin("touched")
            session.update("Saving", 5, {"Balance": 77.0})
            handed = dispatches(server)
            session.call_program(
                deposit, {"N": customer_name(4), "V": 1.0}, end="open"
            )
            assert dispatches(server) == handed  # uncontended: no hand-off
            _result, raised, handed = self._blocked(
                server,
                session,
                deposit,
                {"N": customer_name(1), "V": 2.0},
                ("Checking", 1),
                lambda holder: holder.commit(),
                end="open",
            )
            assert raised is None and handed == 1
            assert session.in_transaction
            session.commit()
        finally:
            session.close()
        after = snapshot(conn)
        assert after["Saving"][5]["Balance"] == 77.0
        assert after["Checking"][4]["Balance"] == start["Checking"][4]["Balance"] + 1.0
        assert after["Checking"][1]["Balance"] == start["Checking"][1]["Balance"] + 2.0

    def test_nowait(self, server, conn):
        """An untouched join answers LockNotAvailable like a call that
        began its own transaction, leaving none; a touched one cannot be
        restarted, so ``nowait`` there is a protocol error."""
        deposit = program_of("base-si", DEPOSIT_CHECKING)
        args = {"N": customer_name(1), "V": 2.0}
        holder = conn.session()
        holder.begin("holder")
        assert holder.select_for_update("Checking", 1) is not None
        try:
            for begin in (lambda s: None, lambda s: s.start_begin_now("joined")()):
                session = conn.session()
                try:
                    begin(session)
                    handed = dispatches(server)
                    with pytest.raises(LockNotAvailable):
                        session.call_program(deposit, args, nowait=True)
                    assert dispatches(server) == handed
                    assert not session.in_transaction
                    assert server.stats()["active_transactions"] == 1  # holder
                finally:
                    session.close()
            session = conn.session()
            try:
                session.begin("touched")
                assert session.select("Saving", 5) is not None
                with pytest.raises(ProtocolError, match="nowait"):
                    session.call_program(deposit, args, nowait=True)
            finally:
                session.close()
            wait_until(
                lambda: server.stats()["active_transactions"] == 1,
                message="rollback of the rejected call's transaction",
            )
        finally:
            holder.rollback()
            holder.close()

    def test_disconnect_during_the_blocked_rerun_leaks_nothing(self, server, conn):
        program = program_of("materialize-all", AMALGAMATE)
        before = snapshot(conn)
        holder = conn.session()
        holder.begin("holder")
        assert holder.select_for_update("Conflict", 2) is not None
        victim = WireConnection("127.0.0.1", server.port)
        pid = victim.call(
            "PREPARE_PROGRAM", {"factory": program.factory, "spec": program.spec}
        )["pid"]
        victim.call("BEGIN", {"label": "doomed"})
        handed = dispatches(server)
        victim.send("CALL", {"pid": pid, "label": "doomed", "args": self.CROSS})
        wait_until(
            lambda: dispatches(server) == handed + 1,
            message="the restarted CALL to park",
        )
        time.sleep(0.1)
        assert server.stats()["active_transactions"] == 2
        victim.close()  # vanish without reading the response
        wait_until(
            lambda: server.stats()["active_transactions"] == 1,
            message="server-side abort of the orphaned CALL",
        )
        with conn.transaction("probe") as txn:  # its first lock is free
            assert txn.select_for_update("Conflict", 1) is not None
        holder.commit()
        holder.close()
        wait_until(
            lambda: server.stats()["sessions_closed"] == 1,
            message="reaping of the vanished connection",
        )
        assert server.stats()["active_transactions"] == 0
        assert snapshot(conn) == before


class TestRetryUnsafeGuard:
    def test_statement_blocked_after_staging_a_write_is_aborted(
        self, server, conn, monkeypatch
    ):
        """No statement of the grammar writes and *then* blocks, and a
        CALL restarts instead — so ``_serve``'s guard is driven with a
        stand-in handler: re-running it after a park would stage the
        first write twice, so the transaction is aborted instead."""

        def two_writes(self, conn, msg):
            conn.session.update("Saving", 1, {"Balance": 1.0})
            conn.session.update("Saving", 2, {"Balance": 2.0})  # held
            return {}

        monkeypatch.setitem(DatabaseServer._HANDLERS, "PING", two_writes)
        before = snapshot(conn)
        holder = conn.session()
        holder.begin("holder")
        assert holder.select_for_update("Saving", 2) is not None
        session = conn.session()
        try:
            session.begin("unsafe")
            assert session.select("Saving", 3) is not None
            handed = dispatches(server)
            with pytest.raises(TransactionAborted, match="after staging writes"):
                session._call("PING")
            assert dispatches(server) == handed  # answered, not re-dispatched
            assert not session.in_transaction
            assert server.stats()["active_transactions"] == 1  # the holder
        finally:
            session.close()
            holder.rollback()
            holder.close()
        assert snapshot(conn) == before
