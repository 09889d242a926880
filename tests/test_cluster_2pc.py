"""Presumed-abort two-phase commit: participant engine, wire, coordinator.

Layered the way the protocol is: the engine's prepare/decide state
machine and its WAL records first, then crash recovery of in-doubt
prepares (the participant recovery hook), then the wire surface
(prepared transactions are connection-independent), then the
coordinator's decision log and in-doubt resolution.
"""

from __future__ import annotations

import pytest

import repro
from repro.cluster import Cluster, TwoPhaseCoordinator
from repro.engine import EngineConfig, Session
from repro.engine.session import NoWaitWaiter, WouldBlock
from repro.engine.recovery import recover_database
from repro.errors import (
    ConnectionClosed,
    SerializationFailure,
    TransactionAborted,
    TransactionStateError,
)
from repro.smallbank import PopulationConfig, build_database


def _decide(conn, decision, gtid):
    """Deliver ``decision`` for ``gtid`` on a fresh session of ``conn``:
    a decision names its transaction by gtid, not by wire."""
    session = conn.session()
    try:
        if decision == "commit":
            return session.start_commit_2pc(gtid)()
        return session.start_abort_2pc(gtid)()
    finally:
        session.close()


def small_db():
    return build_database(None, PopulationConfig(customers=2))


def checking_balance(db, cid=1):
    session = Session(db)
    session.begin("peek")
    try:
        return db.read(session.transaction, "Checking", cid)["Balance"]
    finally:
        session.commit()


class TestEnginePrepareDecide:
    def test_prepared_write_is_invisible_until_the_decision(self):
        db = small_db()
        before = checking_balance(db)
        session = Session(db)
        session.begin("T1")
        session.update("Checking", 1, {"Balance": 999.0})
        db.prepare_commit(session.transaction, "g1")
        assert db.prepared_gtids == ("g1",)
        assert checking_balance(db) == before  # staged, not published
        ts = db.commit_prepared("g1")
        assert ts > 0
        assert db.prepared_gtids == ()
        assert checking_balance(db) == 999.0

    def test_commit_decision_redelivery_is_idempotent(self):
        db = small_db()
        session = Session(db)
        session.begin("T1")
        session.update("Checking", 1, {"Balance": 999.0})
        db.prepare_commit(session.transaction, "g1")
        first = db.commit_prepared("g1")
        assert db.commit_prepared("g1") == first
        with pytest.raises(TransactionStateError):
            db.abort_prepared("g1")  # contradicting a commit is an error

    def test_abort_decision_discards_the_prepare(self):
        db = small_db()
        before = checking_balance(db)
        session = Session(db)
        session.begin("T1")
        session.update("Checking", 1, {"Balance": 999.0})
        db.prepare_commit(session.transaction, "g1")
        db.abort_prepared("g1")
        assert checking_balance(db) == before
        db.abort_prepared("g1")  # idempotent
        with pytest.raises(TransactionStateError):
            db.commit_prepared("g1")

    def test_unknown_gtid_commit_rejected_abort_presumed(self):
        """Presumed abort: an unknown-gtid ABORT_2PC is a harmless no-op
        (the resolver may re-deliver abort to participants that never
        prepared), while an unknown-gtid COMMIT_2PC is always an error —
        a commit decision requires a durable prepare to act on."""
        db = small_db()
        with pytest.raises(TransactionStateError):
            db.commit_prepared("ghost")
        db.abort_prepared("ghost")  # no-op, not an error
        db.abort_prepared("ghost")  # and idempotent
        # The presumption is remembered: committing afterwards is the
        # decision-flip error, not "unknown gtid".
        with pytest.raises(TransactionStateError):
            db.commit_prepared("ghost")

    def test_gtid_reuse_rejected(self):
        db = small_db()
        s1 = Session(db)
        s1.begin("T1")
        s1.update("Checking", 1, {"Balance": 1.0})
        db.prepare_commit(s1.transaction, "g1")
        s2 = Session(db)
        s2.begin("T2")
        s2.update("Checking", 2, {"Balance": 2.0})
        with pytest.raises(TransactionStateError):
            db.prepare_commit(s2.transaction, "g1")

    def test_validation_failure_is_the_no_vote(self):
        """First-committer-wins fires at prepare time; the loser aborts
        exactly as a plain commit would, leaving no prepared orphan and
        no prepare record on the log."""
        db = build_database(
            EngineConfig.first_committer_wins(), PopulationConfig(customers=2)
        )
        loser = Session(db)
        winner = Session(db)
        loser.begin("L")  # snapshot taken before the winner commits
        winner.begin("W")
        winner.update("Checking", 1, {"Balance": 10.0})
        winner.commit()
        loser.update("Checking", 1, {"Balance": 20.0})  # FCW: allowed to stage
        with pytest.raises(SerializationFailure):
            db.prepare_commit(loser.transaction, "gno")
        assert db.prepared_gtids == ()
        assert not [r for r in db.wal.records if r.gtid == "gno"]
        assert checking_balance(db) == 10.0


class TestWalRecords:
    def test_prepare_record_is_durable_before_the_vote_returns(self):
        db = small_db()
        session = Session(db)
        session.begin("T1")
        session.update("Checking", 1, {"Balance": 999.0})
        db.prepare_commit(session.transaction, "g1")
        durable = [r for r in db.wal.durable_records if r.gtid == "g1"]
        assert len(durable) == 1
        (prepare,) = durable
        assert prepare.kind == "prepare"
        assert prepare.commit_ts == 0  # no timestamp until the decision
        assert prepare.redo  # full redo payload rides on the prepare

    def test_commit_decision_record_is_small(self):
        """Presumed abort: the decision record carries no redo — just the
        gtid and the shard's commit timestamp."""
        db = small_db()
        session = Session(db)
        session.begin("T1")
        session.update("Checking", 1, {"Balance": 999.0})
        db.prepare_commit(session.transaction, "g1")
        ts = db.commit_prepared("g1")
        records = [r for r in db.wal.durable_records if r.gtid == "g1"]
        assert [r.kind for r in records] == ["prepare", "commit-2pc"]
        decision = records[1]
        assert decision.commit_ts == ts
        assert decision.redo == ()

    def test_abort_decision_writes_no_record(self):
        """A durable prepare with no decision *is* the abort."""
        db = small_db()
        session = Session(db)
        session.begin("T1")
        session.update("Checking", 1, {"Balance": 999.0})
        db.prepare_commit(session.transaction, "g1")
        db.abort_prepared("g1")
        records = [r for r in db.wal.records if r.gtid == "g1"]
        assert [r.kind for r in records] == ["prepare"]


def _prepare_two(db):
    """Stage two prepared txns: g-committed gets a decision, g-doubt not."""
    decided = Session(db)
    decided.begin("Decided")
    decided.update("Checking", 1, {"Balance": 111.0})
    db.prepare_commit(decided.transaction, "g-committed")
    db.commit_prepared("g-committed")
    in_doubt = Session(db)
    in_doubt.begin("InDoubt")
    in_doubt.update("Checking", 2, {"Balance": 222.0})
    db.prepare_commit(in_doubt.transaction, "g-doubt")


class TestRecovery:
    def test_in_doubt_prepare_survives_a_crash_undecided(self):
        db = small_db()
        _prepare_two(db)
        db.crash()
        recovered = recover_database(db)
        assert recovered.recovered_in_doubt == ("g-doubt",)
        # The decided transaction replayed; the in-doubt one stayed
        # invisible (its redo is stashed, not applied).
        assert checking_balance(recovered, 1) == 111.0
        assert checking_balance(recovered, 2) != 222.0

    def test_redelivered_commit_applies_the_stashed_redo(self):
        db = small_db()
        _prepare_two(db)
        db.crash()
        recovered = recover_database(db)
        ts = recovered.commit_prepared("g-doubt")
        assert recovered.recovered_in_doubt == ()
        assert checking_balance(recovered, 2) == 222.0
        assert recovered.commit_prepared("g-doubt") == ts  # idempotent

    def test_presumed_abort_after_recovery(self):
        db = small_db()
        _prepare_two(db)
        db.crash()
        recovered = recover_database(db)
        recovered.abort_prepared("g-doubt")
        assert recovered.recovered_in_doubt == ()
        assert checking_balance(recovered, 2) != 222.0
        with pytest.raises(TransactionStateError):
            recovered.commit_prepared("g-doubt")

    @pytest.mark.parametrize("decision", ["commit", "abort"])
    def test_in_doubt_prepare_keeps_its_rows_locked(self, decision):
        """A crash must not free a prepared transaction's row locks: a
        writer slipping in before the re-delivered commit would have its
        update overwritten by the replayed after-image (money was made
        that way under the chaos soak).  The writer waits for the
        decision and then loses or wins exactly as against a live
        prepared transaction."""
        db = small_db()
        _prepare_two(db)
        db.crash()
        recovered = recover_database(db)
        local = repro.connect("local://", database=recovered)
        writer = local.session()
        writer.waiter = NoWaitWaiter()
        writer.begin("Writer")
        assert writer.select("Checking", 2)["Balance"] != 222.0  # invisible
        with pytest.raises(WouldBlock):
            writer.update("Checking", 2, {"Balance": 5.0})
        if decision == "commit":
            recovered.commit_prepared("g-doubt")
            with pytest.raises(SerializationFailure):  # first updater won
                writer.update("Checking", 2, {"Balance": 5.0})
            assert checking_balance(recovered, 2) == 222.0
        else:
            recovered.abort_prepared("g-doubt")
            writer.update("Checking", 2, {"Balance": 5.0})
            writer.commit()
            assert checking_balance(recovered, 2) == 5.0
        assert recovered.active_transactions == ()

    def test_re_recovery_is_idempotent(self):
        """Crashing the recovered instance (decision still undelivered)
        reproduces the same in-doubt set from the same durable prefix."""
        db = small_db()
        _prepare_two(db)
        db.crash()
        once = recover_database(db)
        once.crash()
        twice = recover_database(once)
        assert twice.recovered_in_doubt == ("g-doubt",)
        assert checking_balance(twice, 1) == 111.0
        ts = twice.commit_prepared("g-doubt")
        assert ts > 0
        assert checking_balance(twice, 2) == 222.0


class TestWire2pc:
    def test_prepared_transaction_survives_session_close(self):
        """A YES vote detaches the transaction from its wire: the
        coordinator can deliver the decision on any connection later."""
        with Cluster(1, customers=2) as cluster:
            host, port = cluster.addresses[0]
            with repro.connect(f"tcp://{host}:{port}") as conn:
                session = conn.session()
                session.begin("T1")
                session.update("Checking", 1, {"Balance": 500.0})
                session.start_prepare_2pc("gx")()
                session.close()
                assert conn.stats()["prepared_2pc"] == 1
                ts = _decide(conn, "commit", "gx")
                assert ts > 0
                assert _decide(conn, "commit", "gx") == ts  # idempotent re-delivery
                assert conn.stats()["prepared_2pc"] == 0
                with conn.transaction("check") as txn:
                    assert txn.select("Checking", 1)["Balance"] == 500.0

    def test_wire_no_vote_leaves_no_prepared_orphan(self):
        with Cluster(1, customers=2) as cluster:
            host, port = cluster.addresses[0]
            with repro.connect(f"tcp://{host}:{port}") as conn:
                winner = conn.session()
                loser = conn.session()
                loser.begin("L")
                # Force the deferred BEGIN so the loser's snapshot is
                # pinned before the winner commits.
                assert loser.select("Checking", 1) is not None
                winner.begin("W")
                winner.update("Checking", 1, {"Balance": 10.0})
                winner.commit()
                with pytest.raises(TransactionAborted):
                    # First-updater-wins may fire on the (pipelined) update
                    # or surface at the prepare's drain — either way the
                    # vote is NO and nothing stays prepared.
                    loser.update("Checking", 1, {"Balance": 20.0})
                    loser.start_prepare_2pc("gno")()
                loser.close()
                winner.close()
                stats = conn.stats()
                assert stats["prepared_2pc"] == 0
                with pytest.raises(TransactionStateError):
                    _decide(conn, "commit", "gno")

    def test_abort_decision_over_the_wire(self):
        with Cluster(1, customers=2) as cluster:
            host, port = cluster.addresses[0]
            with repro.connect(f"tcp://{host}:{port}") as conn:
                session = conn.session()
                session.begin("T1")
                session.update("Checking", 1, {"Balance": 500.0})
                session.start_prepare_2pc("gx")()
                session.close()
                _decide(conn, "abort", "gx")
                _decide(conn, "abort", "gx")  # idempotent
                assert conn.stats()["prepared_2pc"] == 0
                with conn.transaction("check") as txn:
                    assert txn.select("Checking", 1)["Balance"] != 500.0

    def test_wire_decision_idempotence_presumed_abort(self):
        """The presumed-abort contract over the wire: ABORT_2PC for a
        gtid this shard never prepared is a harmless no-op (and stays
        idempotent), COMMIT_2PC for it is an error, and a commit
        decision re-delivered after ``resolve_in_doubt`` — duplicate
        delivery included — keeps answering the same thing."""
        with Cluster(1, customers=2) as cluster:
            host, port = cluster.addresses[0]
            with repro.connect(f"tcp://{host}:{port}") as conn:
                _decide(conn, "abort", "never-prepared")  # presumed abort: no-op
                _decide(conn, "abort", "never-prepared")  # idempotent too
                with pytest.raises(TransactionStateError):
                    _decide(conn, "commit", "never-prepared")

                session = conn.session()
                session.begin("T1")
                session.update("Checking", 1, {"Balance": 123.0})
                session.start_prepare_2pc("gdup")()
                session.close()
                coordinator = TwoPhaseCoordinator()
                coordinator.log.record("gdup", "commit", 1)
                shard = conn.session()
                assert (
                    coordinator.resolve_in_doubt("gdup", [shard]) == "commit"
                )
                _decide(conn, "commit", "gdup")  # duplicate delivery
                assert (
                    coordinator.resolve_in_doubt("gdup", [shard]) == "commit"
                )
                shard.close()
                with conn.transaction("check") as txn:
                    assert txn.select("Checking", 1)["Balance"] == 123.0


class _FakeParticipant:
    """Records decision deliveries; each reply raises ``error`` if given."""

    def __init__(self, error=None):
        self.error = error
        self.calls = []

    def _start(self, decision, gtid, *commit_ts):
        self.calls.append((decision, gtid, *commit_ts))

        def reply():
            if self.error is not None:
                raise self.error
            return 7

        return reply

    def start_commit_2pc(self, gtid, commit_ts):
        return self._start("commit", gtid, commit_ts)

    def start_abort_2pc(self, gtid):
        return self._start("abort", gtid)


class TestCoordinatorResolution:
    def test_logged_commit_decision_is_redelivered(self):
        coordinator = TwoPhaseCoordinator()
        coordinator.log.record("g1", "commit", 5)
        participant = _FakeParticipant()
        assert coordinator.resolve_in_doubt("g1", [participant]) == "commit"
        assert participant.calls == [("commit", "g1", 5)]

    def test_a_commit_is_logged_with_its_timestamp(self):
        """Every shard publishes a commit at the one logged timestamp, so
        a commit decision cannot be logged without one."""
        log = TwoPhaseCoordinator().log
        with pytest.raises(ValueError):
            log.record("g1", "commit")
        with pytest.raises(ValueError):
            log.record("g2", "abort", 5)
        log.record("g1", "commit", 5)
        log.record("g1", "commit", 5)  # idempotent
        assert log.commit_ts_for("g1") == 5
        assert log.commit_ts_for("g2") == 0

    def test_unknown_gtid_resolves_to_presumed_abort(self):
        """No decision on the coordinator's log means the coordinator
        never counted the YES — the participant's prepare must die."""
        coordinator = TwoPhaseCoordinator()
        participant = _FakeParticipant()
        assert coordinator.resolve_in_doubt("ghost", [participant]) == "abort"
        assert participant.calls == [("abort", "ghost")]

    def test_resolution_tolerates_already_resolved_participants(self):
        coordinator = TwoPhaseCoordinator()
        coordinator.log.record("g1", "abort")
        participant = _FakeParticipant(
            TransactionStateError("no prepared transaction for 'g1'")
        )
        assert coordinator.resolve_in_doubt("g1", [participant]) == "abort"

    def test_every_participant_is_told_before_an_error_is_raised(self):
        coordinator = TwoPhaseCoordinator()
        coordinator.log.record("g1", "commit", 5)
        lost = ConnectionClosed("shard went away")
        first, second = _FakeParticipant(lost), _FakeParticipant()
        with pytest.raises(ConnectionClosed) as excinfo:
            coordinator.resolve_in_doubt("g1", [first, second])
        assert excinfo.value is lost
        assert first.calls == second.calls == [("commit", "g1", 5)]
