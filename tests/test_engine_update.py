"""``Database.update``: an UPDATE is one engine call that reads, copies,
checks and stages its row once.  What the read and the write did as
separate calls still holds: the read is recorded (and under S2PL locked
shared first), only the changed columns are checked, the key cannot
move, and the committed records cannot be changed afterwards."""

from __future__ import annotations

import pytest

from repro.engine import Database, LockMode, Session
from repro.engine.engine import WaitOn
from repro.engine.transaction import TxnStatus
from repro.engine.versions import Version
from repro.errors import DeadlockError, IntegrityError, SchemaError


class TestOneCallUpdate:
    def test_records_cannot_be_mutated(self, db: Database):
        session = Session(db)
        session.begin("frozen")
        session.update("Saving", 1, {"Balance": 7.0})
        session.commit()
        (record,) = db.wal.records
        version = db.catalog.table("Saving").chain(1).latest()
        for built, field in ((record, "redo"), (record, "kind"), (version, "value")):
            with pytest.raises(AttributeError):
                setattr(built, field, None)
        with pytest.raises(TypeError):
            record.redo[0][2]["Balance"] = 0.0
        assert version == Version(record.commit_ts, record.txid, record.redo[0][2])

    def test_only_changed_columns_are_checked_and_the_key_cannot_move(self, db: Database):
        txn = db.begin()
        with pytest.raises(IntegrityError, match="expects numeric, got True"):
            db.update(txn, "Saving", 1, {"Balance": True})
        with pytest.raises(SchemaError) as caught:
            db.update(txn, "Saving", 1, {"Balance": 1.0, "Bogus": 1, "Also": 2})
        assert str(caught.value) == "unknown column(s) ['Also', 'Bogus'] for table 'Saving'"
        with pytest.raises(IntegrityError, match="does not match write target 1"):
            db.update(txn, "Saving", 1, {"CustomerId": 2})
        assert not txn.writes and not db.locks._locks
        assert db.update(txn, "Saving", 404, {"Balance": 1.0}) is False
        assert db.update(txn, "Saving", 1, lambda row: {"Balance": row["Balance"] + 1})
        assert txn.writes[("Saving", 1)]["Balance"] == db.read(db.begin(), "Saving", 1)["Balance"] + 1

    def test_an_s2pl_update_takes_the_shared_lock_first(self, s2pl_db: Database):
        """Both read, then both update: each upgrade waits on the other's
        shared lock, and the second wait closes a cycle."""
        row = ("Saving", 1)
        t1, t2 = s2pl_db.begin("t1"), s2pl_db.begin("t2")
        assert s2pl_db.read(t2, *row) is not None
        first = s2pl_db.update(t1, *row, {"Balance": 1.0})
        assert isinstance(first, WaitOn) and first.blockers == {t2}
        assert s2pl_db.locks._locks[row] == {t1.txid: LockMode.SHARED, t2.txid: LockMode.SHARED}
        s2pl_db.begin_wait(t1, first)
        second = s2pl_db.update(t2, *row, {"Balance": 2.0})
        assert isinstance(second, WaitOn) and second.blockers == {t1}
        with pytest.raises(DeadlockError):
            s2pl_db.begin_wait(t2, second)
        assert t2.status is TxnStatus.ABORTED and t1.is_active

    def test_an_ssi_update_records_its_read(self, ssi_db: Database):
        """The read half registers the row with the certifier: an update
        behind an uncommitted writer makes the rw edge toward it."""
        row = ("Saving", 1)
        holder, reader = ssi_db.begin("holder"), ssi_db.begin("reader")
        assert ssi_db.update(holder, *row, {"Balance": 1.0}) is True
        wait = ssi_db.update(reader, *row, {"Balance": 2.0})
        assert isinstance(wait, WaitOn) and wait.blockers == {holder}
        assert reader.reads == {row: 0} and reader.txid in ssi_db._ssi._sireads[row]
        assert reader.out_conflict and holder.in_conflict
