"""Engine edge cases: delete/reinsert cycles, SFU corners, config presets."""

from __future__ import annotations

import pytest

from repro.engine import (
    Database,
    EngineConfig,
    IsolationLevel,
    Session,
    SfuSemantics,
    WaitOn,
    WriteConflictPolicy,
)
from repro.engine.transaction import TxnStatus
from repro.errors import SerializationFailure, TransactionStateError


class TestConfigPresets:
    def test_postgres_preset(self):
        config = EngineConfig.postgres()
        assert config.isolation is IsolationLevel.SI
        assert config.write_conflict is WriteConflictPolicy.FIRST_UPDATER_WINS
        assert config.sfu is SfuSemantics.LOCK_ONLY

    def test_commercial_preset(self):
        config = EngineConfig.commercial()
        assert config.sfu is SfuSemantics.CC_WRITE

    def test_presets_are_frozen_and_comparable(self):
        assert EngineConfig.postgres() == EngineConfig.postgres()
        assert EngineConfig.postgres() != EngineConfig.commercial()
        with pytest.raises(AttributeError):
            EngineConfig.postgres().isolation = IsolationLevel.S2PL


class TestDeleteReinsert:
    def test_delete_then_reinsert_same_key(self, db: Database):
        session = Session(db)
        session.begin()
        session.delete("Account", "cust1")
        session.insert("Account", {"Name": "cust1", "CustomerId": 77})
        session.commit()
        check = Session(db)
        check.begin()
        assert check.select("Account", "cust1")["CustomerId"] == 77

    def test_reinsert_after_committed_delete(self, db: Database):
        first = Session(db)
        first.begin()
        first.delete("Account", "cust1")
        first.commit()
        second = Session(db)
        second.begin()
        second.insert("Account", {"Name": "cust1", "CustomerId": 88})
        second.commit()
        chain = db.catalog.table("Account").chain("cust1")
        # bootstrap + tombstone + reinsert.
        assert len(chain) == 3

    def test_concurrent_insert_same_key_conflicts(self, db: Database):
        t1 = db.begin()
        t2 = db.begin()
        assert db.insert(t1, "Account", {"Name": "new", "CustomerId": 91}) is None
        result = db.insert(t2, "Account", {"Name": "new", "CustomerId": 92})
        assert isinstance(result, WaitOn)
        db.commit(t1)
        with pytest.raises(SerializationFailure):
            db.insert(t2, "Account", {"Name": "new", "CustomerId": 92})

    def test_update_of_deleted_row_is_noop(self, db: Database):
        session = Session(db)
        session.begin()
        session.delete("Saving", 1)
        session.commit()
        updater = Session(db)
        updater.begin()
        assert updater.update("Saving", 1, {"Balance": 5.0}) is False

    def test_snapshot_still_sees_row_deleted_later(self, db: Database):
        reader = db.begin()
        deleter = db.begin()
        db.delete(deleter, "Saving", 1)
        db.commit(deleter)
        row = db.read(reader, "Saving", 1)
        assert row is not None and row["Balance"] == 100.0


class TestSfuCorners:
    def test_sfu_missing_row_returns_none(self, db: Database):
        t1 = db.begin()
        assert db.select_for_update(t1, "Saving", 999) is None
        # The lock was still taken (gap-style protection on the key).
        assert db.locks.holds(t1.txid, ("Saving", 999))

    def test_sfu_then_update_in_same_txn(self, db: Database):
        session = Session(db)
        session.begin()
        row = session.select_for_update("Saving", 1)
        session.update("Saving", 1, {"Balance": row["Balance"] + 1})
        session.commit()
        check = Session(db)
        check.begin()
        assert check.select("Saving", 1)["Balance"] == 101.0

    def test_sfu_reads_own_pending_write(self, db: Database):
        session = Session(db)
        session.begin()
        session.update("Saving", 1, {"Balance": 55.0})
        # FOR UPDATE after own write: engine returns the snapshot version
        # for visibility purposes only when no own write exists.
        row = db.read(session.transaction, "Saving", 1)
        assert row["Balance"] == 55.0

    def test_commercial_sfu_mark_expires_for_later_snapshots(
        self, commercial_db: Database
    ):
        db = commercial_db
        t1 = db.begin()
        db.select_for_update(t1, "Saving", 1)
        db.commit(t1)
        later = db.begin()  # snapshot after t1's commit
        assert db.write(
            later, "Saving", 1, {"CustomerId": 1, "Balance": 0.0}
        ) is None
        db.commit(later)
        assert later.status is TxnStatus.COMMITTED


class TestMixedWorkloads:
    def test_many_sequential_mixed_ops_keep_engine_consistent(self, db):
        session = Session(db)
        for round_number in range(20):
            session.begin(f"round-{round_number}")
            session.update(
                "Checking", 1 + round_number % 3,
                lambda row: {"Balance": row["Balance"] + 1},
            )
            if round_number % 4 == 0:
                session.select("Saving", 1)
            session.commit()
        check = Session(db)
        check.begin()
        total = sum(
            check.select("Checking", cid)["Balance"] for cid in (1, 2, 3)
        )
        assert total == 3 * 50.0 + 20

    def test_version_chains_grow_monotonically(self, db: Database):
        for _ in range(5):
            session = Session(db)
            session.begin()
            session.update("Saving", 1, lambda row: {"Balance": row["Balance"]})
            session.commit()
        chain = db.catalog.table("Saving").chain(1)
        timestamps = [version.commit_ts for version in chain.committed]
        assert timestamps == sorted(timestamps)
        assert len(timestamps) == 6


class TestRestart:
    """``Database.restart``: abort an attempt, reopen it at its snapshot."""

    def _commit_balance(self, db: Database, value: float) -> None:
        writer = Session(db)
        writer.begin()
        writer.update("Saving", 1, {"Balance": value})
        writer.commit()

    def test_successor_keeps_snapshot_and_label_and_nothing_else(self, db: Database):
        session = Session(db)
        attempt = session.begin("Amalgamate#g7")
        assert attempt.is_untouched
        self._commit_balance(db, 111.0)  # after the snapshot
        session.update("Checking", 2, {"Balance": 1.0})
        assert not attempt.is_untouched
        successor = db.restart(attempt, reason="call-would-block")
        assert attempt.status is TxnStatus.ABORTED
        assert successor.is_active and successor.is_untouched
        assert successor.txid != attempt.txid
        assert (successor.snapshot_ts, successor.label) == (
            attempt.snapshot_ts,
            "Amalgamate#g7",
        )
        assert db.active_transactions == (successor,)
        # The attempt's write and row lock are gone ...
        assert db.catalog.table("Checking").chain(2).uncommitted is None
        assert not db.locks.rows_held_by(attempt.txid)
        # ... and the successor reads what the attempt would have read.
        session.txn = successor
        assert session.select("Saving", 1)["Balance"] == 100.0
        assert session.select("Checking", 2)["Balance"] == 50.0

    def test_vacuum_horizon_never_passes_the_snapshot(self, db: Database):
        attempt = db.begin("old")
        self._commit_balance(db, 111.0)
        self._commit_balance(db, 222.0)
        successor = db.restart(attempt)
        assert db.vacuum() == 0  # the bootstrap version is still someone's
        db.abort(successor)
        assert db.vacuum() == 2

    def test_first_updater_wins_still_applies_to_the_successor(self, db: Database):
        session = Session(db)
        session.begin()
        self._commit_balance(db, 111.0)
        session.txn = db.restart(session.txn)
        with pytest.raises(SerializationFailure):
            session.update("Saving", 1, {"Balance": 0.0})

    def test_only_an_active_transaction_restarts(self, db: Database):
        txn = db.begin()
        db.abort(txn)
        with pytest.raises(TransactionStateError):
            db.restart(txn)
        assert db.active_transactions == ()
