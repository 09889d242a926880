"""Tests for the logical write-ahead log."""

from __future__ import annotations

import pytest

from repro.engine import Database, Session
from repro.engine.wal import WalRecord, WriteAheadLog


class TestWalStructure:
    def test_records_ordered_by_commit_ts(self):
        wal = WriteAheadLog()
        wal.append(WalRecord(1, 10, "a", (("T", 1, None),)))
        wal.append(WalRecord(5, 11, "b", (("T", 2, None),)))
        with pytest.raises(ValueError):
            wal.append(WalRecord(5, 12, "c", ()))
        with pytest.raises(ValueError):
            wal.append(WalRecord(3, 13, "d", ()))
        assert [r.commit_ts for r in wal] == [1, 5]
        assert len(wal) == 2

    def test_kind_and_gtid_are_checked_where_a_record_enters_the_log(self):
        wal = WriteAheadLog()
        with pytest.raises(ValueError, match="unknown WAL record kind"):
            wal.append(WalRecord(1, 10, "a", kind="abort"))
        for kind in ("prepare", "commit-2pc"):
            with pytest.raises(ValueError, match="require a gtid"):
                wal.append(WalRecord(1, 10, "a", kind=kind))
        assert len(wal) == 0
        wal.append(WalRecord(0, 10, "a", kind="prepare", gtid="g1"))
        wal.append(WalRecord(2, 10, "a", kind="commit-2pc", gtid="g1"), durable=True)
        wal.append(WalRecord(0, 11, "b", kind="prepare", gtid="g2"))
        with pytest.raises(ValueError, match="increasing"):
            wal.append(WalRecord(2, 12, "c"))
        wal.append(WalRecord(4, 12, "c"))
        assert wal.unflushed_count == 2
        wal.truncate_to_flushed()
        wal.append(WalRecord(3, 13, "d"))  # the crash took commit 4 with it

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
