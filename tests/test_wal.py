"""Tests for the logical write-ahead log."""

from __future__ import annotations

import pytest

from repro.engine import Database, Session
from repro.engine.wal import WalRecord, WriteAheadLog


class TestWalStructure:
    def test_records_ordered_by_commit_ts(self):
        wal = WriteAheadLog()
        wal.append(WalRecord(1, 10, "a", ((("T", 1), None),)))
        wal.append(WalRecord(5, 11, "b", ((("T", 2), None),)))
        with pytest.raises(ValueError):
            wal.append(WalRecord(5, 12, "c", ()))
        with pytest.raises(ValueError):
            wal.append(WalRecord(3, 13, "d", ()))
        assert [r.commit_ts for r in wal] == [1, 5]
        assert len(wal) == 2

    def test_records_for_label(self):
        wal = WriteAheadLog()
        wal.append(WalRecord(1, 10, "Balance", ()))
        wal.append(WalRecord(2, 11, "WriteCheck", ()))
        wal.append(WalRecord(3, 12, "Balance", ()))
        assert len(wal.records_for("Balance")) == 2
        assert wal.records_for("Nothing") == ()


class TestWalFromEngine:
    def test_update_transactions_log_their_rows(self, db: Database):
        session = Session(db)
        session.begin("move")
        session.update("Saving", 1, {"Balance": 0.0})
        session.update("Checking", 2, {"Balance": 0.0})
        session.commit()
        (record,) = db.wal.records
        assert record.label == "move"
        assert record.rows == (("Saving", 1), ("Checking", 2))
        assert record.commit_ts == session.txn.commit_ts

    def test_aborted_transactions_log_nothing(self, db: Database):
        session = Session(db)
        session.begin()
        session.update("Saving", 1, {"Balance": 0.0})
        session.rollback()
        assert len(db.wal) == 0

    def test_log_order_matches_commit_order(self, db: Database):
        for cid in (3, 1, 2):
            session = Session(db)
            session.begin(f"t{cid}")
            session.update("Saving", cid, {"Balance": float(cid)})
            session.commit()
        labels = [record.label for record in db.wal]
        assert labels == ["t3", "t1", "t2"]
        timestamps = [record.commit_ts for record in db.wal]
        assert timestamps == sorted(timestamps)
