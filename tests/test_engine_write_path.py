"""Invariants the flattened write → commit path leans on (ISSUE 23).

Each test here passes on the code as it stood before the flattening and
must keep passing after it: who owns a staged row, what `validate_row`
rejects and how it says so, what the lock table holds once everybody is
done, how commit treats unique constraints and repeated writes.
"""

from __future__ import annotations

import pytest

from repro.engine import Column, Database, LockManager, LockMode, Session, TableSchema
from repro.errors import IntegrityError, SchemaError

from tests.conftest import make_bank_db


class TestStagedRowBelongsToTheEngine:
    """The engine copies a written row exactly once and freezes the copy:
    nothing the caller does to its own dict afterwards shows anywhere."""

    @staticmethod
    def mutate_after(stage) -> tuple[Database, dict]:
        db = make_bank_db()
        txn = db.begin("owner")
        mine = {"CustomerId": 1, "Balance": 7.0}
        stage(db, txn, mine)
        mine["Balance"] = -1.0
        mine["Extra"] = "junk"
        staged = txn.writes[("Saving", mine["CustomerId"])]
        assert staged == {"CustomerId": mine["CustomerId"], "Balance": 7.0}
        assert db.read(txn, "Saving", mine["CustomerId"]) is staged
        with pytest.raises(TypeError):
            staged["Balance"] = 0.0  # rows handed back are read-only
        db.commit(txn)
        return db, mine

    def test_write(self):
        db, mine = self.mutate_after(
            lambda db, txn, row: db.write(txn, "Saving", 1, row)
        )
        after = db.begin()
        committed = db.read(after, "Saving", 1)
        assert committed == {"CustomerId": 1, "Balance": 7.0}
        with pytest.raises(TypeError):
            committed["Balance"] = 0.0
        assert db.wal.records[-1].redo == (("Saving", 1, committed),)

    def test_insert(self):
        def stage(db, txn, row):
            row["CustomerId"] = 9
            db.insert(txn, "Saving", row)

        db, _ = self.mutate_after(stage)
        after = db.begin()
        assert db.read(after, "Saving", 9) == {"CustomerId": 9, "Balance": 7.0}

    def test_update_with_the_callers_changes_dict(self, db: Database):
        session = Session(db)
        session.begin()
        changes = {"Balance": 7.0}
        assert session.update("Saving", 1, changes)
        changes["Balance"] = -1.0
        staged = session.transaction.writes[("Saving", 1)]
        assert staged == {"CustomerId": 1, "Balance": 7.0}
        with pytest.raises(TypeError):
            staged["Balance"] = 0.0
        session.commit()
        session.begin()
        assert session.select("Saving", 1) == {"CustomerId": 1, "Balance": 7.0}
        with pytest.raises(TypeError):
            session.select("Saving", 1)["Balance"] = 0.0

    def test_validate_row_returns_a_copy(self):
        schema = make_bank_db().catalog.table("Saving").schema
        mine = {"CustomerId": 1, "Balance": 7.0}
        copy = schema.validate_row(mine)
        assert copy == mine and copy is not mine and type(copy) is dict


SCHEMA = TableSchema(
    "T",
    (
        Column("k", "int"),
        Column("n", "numeric"),
        Column("t", "text"),
        Column("o", "text", nullable=True),
    ),
    primary_key="k",
)
GOOD = {"k": 1, "n": 1.5, "t": "x", "o": None}


class TestValidateRowRejections:
    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("k", True, "column 'k' expects int, got True"),
            ("k", 1.0, "column 'k' expects int, got 1.0"),
            ("k", "1", "column 'k' expects int, got '1'"),
            ("k", None, "column 'k' is NOT NULL"),
            ("n", False, "column 'n' expects numeric, got False"),
            ("n", "1.5", "column 'n' expects numeric, got '1.5'"),
            ("n", None, "column 'n' is NOT NULL"),
            ("t", 3, "column 't' expects text, got 3"),
            ("t", True, "column 't' expects text, got True"),
            ("t", None, "column 't' is NOT NULL"),
            ("o", 3, "column 'o' expects text, got 3"),
        ],
    )
    def test_bad_value(self, column, value, message):
        with pytest.raises(IntegrityError) as caught:
            SCHEMA.validate_row({**GOOD, column: value})
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "row",
        [GOOD, {**GOOD, "n": 2}, {**GOOD, "o": "y"}, {**GOOD, "k": -5, "n": 0}],
    )
    def test_good_row(self, row):
        assert SCHEMA.validate_row(row) == row

    def test_unknown_column(self):
        with pytest.raises(SchemaError) as caught:
            SCHEMA.validate_row({**GOOD, "z": 1, "a": 2})
        assert str(caught.value) == "unknown column(s) ['a', 'z'] for table 'T'"

    def test_missing_column(self):
        with pytest.raises(IntegrityError) as caught:
            SCHEMA.validate_row({"k": 1})
        assert str(caught.value) == "missing column(s) ['n', 'o', 't'] for table 'T'"

    def test_unknown_wins_over_missing(self):
        with pytest.raises(SchemaError):
            SCHEMA.validate_row({"k": 1, "z": 1})

    def test_the_engine_says_the_same(self, db: Database):
        txn = db.begin()
        with pytest.raises(IntegrityError, match="expects numeric, got True"):
            db.write(txn, "Saving", 1, {"CustomerId": 1, "Balance": True})
        with pytest.raises(IntegrityError, match="does not match write target 2"):
            db.write(txn, "Saving", 2, {"CustomerId": 1, "Balance": 1.0})
        assert not txn.writes and not db.locks._locks


class TestLockTable:
    def test_upgrade_beside_a_second_sharer_names_exactly_that_sharer(self):
        lm = LockManager()
        row = ("T", 1)
        assert lm.try_acquire(1, row, LockMode.SHARED) == frozenset()
        assert lm.try_acquire(2, row, LockMode.SHARED) == frozenset()
        assert lm.try_acquire(1, row, LockMode.EXCLUSIVE) == frozenset({2})
        assert lm.holders(row) == {1: LockMode.SHARED, 2: LockMode.SHARED}
        lm.release_all(2)
        assert lm.try_acquire(1, row, LockMode.EXCLUSIVE) == frozenset()
        # Re-acquiring in either mode keeps the exclusive grant, once.
        assert lm.try_acquire(1, row, LockMode.SHARED) == frozenset()
        assert lm.try_acquire(1, row, LockMode.EXCLUSIVE) == frozenset()
        assert lm.holders(row) == {1: LockMode.EXCLUSIVE}
        assert lm.rows_held_by(1) == frozenset({row})

    @pytest.mark.parametrize("preset", ["postgres", "commercial", "s2pl", "ssi"])
    def test_nothing_is_left_once_everybody_is_done(self, preset):
        from repro.engine import EngineConfig

        db = make_bank_db(getattr(EngineConfig, preset)())
        sessions = [Session(db) for _ in range(6)]
        for cid, session in enumerate(sessions[:3], start=1):
            session.begin(f"t{cid}")
            session.select("Checking", cid)
            session.update("Saving", cid, {"Balance": 1.0})
            session.update("Saving", cid, {"Balance": 2.0})
            session.select_for_update("Checking", cid)
        sessions[0].commit()
        sessions[1].rollback()
        successor = db.restart(sessions[2].transaction)
        db.write(successor, "Saving", 3, {"CustomerId": 3, "Balance": 3.0})
        db.abort(successor)
        for cid, gtid in ((1, "g-commit"), (2, "g-abort")):
            session = sessions[2 + cid]
            session.begin(gtid)
            session.update("Checking", cid, {"Balance": 5.0})
            db.prepare_commit(session.transaction, gtid)
            assert db.locks.rows_held_by(session.transaction.txid)
        db.commit_prepared("g-commit")
        db.abort_prepared("g-abort")
        assert len(db.locks._locks) == 0
        assert db.locks._held_by_txn == {}
        assert db.active_transactions == ()


def account_row(name: str, cid: int) -> dict:
    return {"Name": name, "CustomerId": cid}


class TestCommitValidation:
    def test_unique_value_swapped_between_two_rows_commits(self, db: Database):
        txn = db.begin("swap")
        db.write(txn, "Account", "cust1", account_row("cust1", 2))
        db.write(txn, "Account", "cust2", account_row("cust2", 1))
        db.commit(txn)
        after = db.begin()
        assert db.lookup_unique(after, "Account", "CustomerId", 1)[0] == "cust2"
        assert db.lookup_unique(after, "Account", "CustomerId", 2)[0] == "cust1"

    def test_swap_through_two_phase_commit(self, db: Database):
        txn = db.begin("swap")
        db.write(txn, "Account", "cust1", account_row("cust1", 2))
        db.write(txn, "Account", "cust2", account_row("cust2", 1))
        db.prepare_commit(txn, "g")
        db.commit_prepared("g")
        after = db.begin()
        assert db.lookup_unique(after, "Account", "CustomerId", 1)[0] == "cust2"

    @pytest.mark.parametrize("two_phase", [False, True])
    def test_violation_leaves_no_trace(self, db: Database, two_phase):
        txn = db.begin("dup")
        db.write(txn, "Saving", 1, {"CustomerId": 1, "Balance": 9.0})
        db.write(txn, "Account", "cust1", account_row("cust1", 2))
        clock_before = db.clock.last
        with pytest.raises(IntegrityError) as caught:
            if two_phase:
                db.prepare_commit(txn, "g")
            else:
                db.commit(txn)
        assert str(caught.value) == (
            "unique constraint on Account.CustomerId violated by value 2"
        )
        assert db.clock.last == clock_before  # no timestamp consumed
        assert len(db.wal) == 0 and db.prepared_gtids == ()
        for table, key in (("Saving", 1), ("Account", "cust1")):
            assert len(db.catalog.table(table).chain(key)) == 1
        assert txn.is_active  # the caller decides: fix the row or roll back
        db.abort(txn)
        assert len(db.locks._locks) == 0

    def test_row_written_twice_is_logged_once_with_its_last_value(self, db):
        txn = db.begin("twice")
        db.write(txn, "Saving", 2, {"CustomerId": 2, "Balance": 1.0})
        db.write(txn, "Checking", 1, {"CustomerId": 1, "Balance": 2.0})
        db.write(txn, "Saving", 2, {"CustomerId": 2, "Balance": 3.0})
        db.commit(txn)
        (record,) = db.wal.records
        assert record.rows == (("Saving", 2), ("Checking", 1))
        assert record.redo == (
            ("Saving", 2, {"CustomerId": 2, "Balance": 3.0}),
            ("Checking", 1, {"CustomerId": 1, "Balance": 2.0}),
        )
        assert len(db.catalog.table("Saving").chain(2)) == 2  # one new version

    def test_prepare_record_carries_the_same_payload(self, db: Database):
        txn = db.begin("twice")
        db.write(txn, "Saving", 2, {"CustomerId": 2, "Balance": 1.0})
        db.write(txn, "Checking", 1, {"CustomerId": 1, "Balance": 2.0})
        db.write(txn, "Saving", 2, {"CustomerId": 2, "Balance": 3.0})
        db.prepare_commit(txn, "g")
        commit_ts = db.commit_prepared("g")
        prepare, decision = db.wal.records
        assert (prepare.kind, prepare.commit_ts, prepare.gtid) == ("prepare", 0, "g")
        assert prepare.rows == (("Saving", 2), ("Checking", 1))
        assert prepare.redo[0] == ("Saving", 2, {"CustomerId": 2, "Balance": 3.0})
        assert (decision.kind, decision.commit_ts) == ("commit-2pc", commit_ts)
        assert decision.rows == () and decision.redo == ()

