"""SSI certifier mode (extension: runtime dangerous-structure detection)."""

from __future__ import annotations

import pytest

from repro.analysis import record_database
from repro.analysis.mvsg import MultiVersionSerializationGraph
from repro.engine import Database, EngineConfig
from repro.engine.transaction import TxnStatus
from repro.errors import SsiAbort
from repro.smallbank import PopulationConfig, build_database


def write_balance(db, txn, table, cid, value):
    return db.write(txn, table, cid, {"CustomerId": cid, "Balance": value})


class TestSsiCertifier:
    def test_write_skew_aborted(self, ssi_db: Database):
        """The classic write skew: one of the two pivots must die."""
        db = ssi_db
        t1 = db.begin("wc")
        t2 = db.begin("ts")
        db.read(t1, "Saving", 1)
        db.read(t1, "Checking", 1)
        db.read(t2, "Saving", 1)
        db.read(t2, "Checking", 1)
        outcomes = []
        for txn, table in ((t1, "Checking"), (t2, "Saving")):
            try:
                write_balance(db, txn, table, 1, 0.0)
                db.commit(txn)
                outcomes.append("committed")
            except SsiAbort:
                outcomes.append("aborted")
        assert "aborted" in outcomes

    def test_read_only_transactions_unaffected_when_alone(self, ssi_db):
        db = ssi_db
        t1 = db.begin()
        db.read(t1, "Saving", 1)
        db.read(t1, "Checking", 1)
        db.commit(t1)
        assert t1.status is TxnStatus.COMMITTED

    def test_plain_update_conflict_still_fuw(self, ssi_db: Database):
        """SSI layers on top of SI; FUW still applies to ww conflicts."""
        from repro.errors import SerializationFailure

        db = ssi_db
        t1 = db.begin()
        t2 = db.begin()
        write_balance(db, t2, "Saving", 1, 1.0)
        db.commit(t2)
        with pytest.raises(SerializationFailure):
            write_balance(db, t1, "Saving", 1, 2.0)

    def test_non_conflicting_transactions_commit(self, ssi_db: Database):
        db = ssi_db
        t1 = db.begin()
        t2 = db.begin()
        db.read(t1, "Saving", 1)
        write_balance(db, t1, "Saving", 1, 1.0)
        db.read(t2, "Saving", 2)
        write_balance(db, t2, "Saving", 2, 2.0)
        db.commit(t1)
        db.commit(t2)
        assert t1.status is TxnStatus.COMMITTED
        assert t2.status is TxnStatus.COMMITTED

    def test_sequential_transactions_never_aborted(self, ssi_db: Database):
        db = ssi_db
        for _ in range(5):
            t = db.begin()
            current = db.read(t, "Saving", 1)["Balance"]
            write_balance(db, t, "Saving", 1, current + 1)
            db.commit(t)
            assert t.status is TxnStatus.COMMITTED
        final = db.begin()
        assert db.read(final, "Saving", 1)["Balance"] == 105.0

    def test_siread_table_empties_at_mpl_one(self, ssi_db: Database):
        """Alone, a committed reader overlaps nobody, so its SIREAD
        entries go at its commit and nothing accumulates — the bound a
        periodic rebuild of the whole table used to provide."""
        db = ssi_db
        for i in range(300):
            t = db.begin()
            db.read(t, "Saving", i % 3 + 1)
            db.read(t, "Checking", i % 3 + 1)
            if i % 2:
                write_balance(db, t, "Saving", i % 3 + 1, float(i))
            db.commit(t)
        assert db._ssi._sireads == {}
        assert db._ssi._txns == {}

    def test_siread_retention_rule(self, ssi_db: Database):
        """A committed reader's entries live while an overlapping
        transaction is active; an aborted reader's go at once."""
        db = ssi_db
        overlapping = db.begin("overlapping")
        reader = db.begin("reader")
        db.read(reader, "Saving", 1)
        db.commit(reader)
        assert db._ssi._sireads == {("Saving", 1): {reader.txid}}
        aborted = db.begin("aborted")
        db.read(aborted, "Checking", 1)
        db.abort(aborted)
        assert db._ssi._sireads == {("Saving", 1): {reader.txid}}
        db.commit(overlapping)
        assert db._ssi._sireads == {}

    def test_doomed_transaction_aborts_at_next_operation(self, ssi_db):
        """A pivot learns of its doom at its next engine call."""
        db = ssi_db
        pivot = db.begin("pivot")
        db.read(pivot, "Saving", 1)  # will become out-conflict
        # Reader that will later be overwritten by the pivot.
        reader = db.begin("reader")
        db.read(reader, "Checking", 1)
        # Pivot writes what the reader read -> in-edge into pivot... and a
        # concurrent writer overwrites what the pivot read -> out-edge.
        write_balance(db, pivot, "Checking", 1, 0.0)
        writer = db.begin("writer")
        write_balance(db, writer, "Saving", 1, 0.0)
        db.commit(writer)
        with pytest.raises(SsiAbort):
            db.commit(pivot)
        assert pivot.status is TxnStatus.ABORTED
        # The other two are free to commit.
        db.commit(reader)
        assert reader.status is TxnStatus.COMMITTED


class TestPreparedTransactions:
    """A PREPARED transaction may still commit, and only its coordinator
    can abort it: the certifier treats it as active where it writes (a
    reader under its write gains an rw edge) and as committed where it
    is a pivot (the *other* transaction is doomed)."""

    def test_write_skew_with_one_side_prepared_is_aborted(self):
        db = build_database(EngineConfig.ssi(), PopulationConfig(customers=4))
        recorder = record_database(db)
        t1 = db.begin("wc")
        t2 = db.begin("ts")  # begun before t1 prepares
        saving = dict(db.read(t1, "Saving", 1))
        db.read(t1, "Checking", 1)
        db.write(t1, "Saving", 1, {**saving, "Balance": 0.0})
        db.prepare_commit(t1, "g1")
        db.read(t2, "Saving", 1)  # under t1's prepared write: t2 -rw-> t1
        checking = dict(db.read(t2, "Checking", 1))
        with pytest.raises(SsiAbort):
            db.write(t2, "Checking", 1, {**checking, "Balance": 0.0})
        db.commit_prepared("g1")
        assert t2.status is TxnStatus.ABORTED
        assert MultiVersionSerializationGraph(recorder.committed).find_cycle() is None

    def test_prepared_pivot_dooms_the_other_side(self, ssi_db: Database):
        db = ssi_db
        reader = db.begin("reader")
        db.read(reader, "Checking", 1)
        pivot = db.begin("pivot")
        db.read(pivot, "Saving", 1)
        write_balance(db, pivot, "Checking", 1, 0.0)  # reader -rw-> pivot
        db.prepare_commit(pivot, "g1")
        writer = db.begin("writer")
        with pytest.raises(SsiAbort):  # pivot -rw-> writer: pivot complete
            write_balance(db, writer, "Saving", 1, 0.0)
            db.commit(writer)
        db.commit_prepared("g1")
        db.commit(reader)
        assert (pivot.status, reader.status) == (TxnStatus.COMMITTED,) * 2
