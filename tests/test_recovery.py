"""Crash recovery: the durability invariant.

The contract under test (see :mod:`repro.engine.recovery`):

* flushed-committed effects survive recovery exactly — row after-images
  and deletion tombstones alike, with their original commit timestamps;
* unflushed and uncommitted effects vanish without a trace;
* bootstrap rows (the checkpoint image) are always restored;
* the logical clock resumes strictly after the replayed horizon;
* SmallBank money conservation holds across crash/recover cycles.

The property test drives a random committed history and recovers from
*every* WAL prefix, comparing against an independently maintained shadow
state.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, Session, recover_database, replay_records
from repro.engine.wal import WalRecord
from repro.errors import ApplicationRollback, DatabaseCrashed, RecoveryError
from repro.faults import FaultPlan, FaultSpec
from repro.smallbank import (
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
    total_money,
)

from tests.conftest import (
    assert_no_shared_mutable_state,
    bank_schemas,
    make_bank_db,
)

#: A read timestamp beyond any commit in these tests.
LATE = 10**9


def visible_state(db: Database) -> dict[tuple[str, object], object]:
    """``{(table, key): balance}`` for every visible Saving/Checking row."""
    state: dict[tuple[str, object], object] = {}
    for name in ("Saving", "Checking"):
        table = db.catalog.table(name)
        for key, row in table.scan_visible(LATE):
            state[(name, key)] = row["Balance"]
    return state


# ----------------------------------------------------------------------
# Deterministic durability tests
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_flushed_commits_survive(self, db: Database) -> None:
        s = Session(db)
        s.begin("t1")
        s.update("Saving", 1, {"Balance": 250.0})
        s.delete("Checking", 2)
        s.commit()

        db.crash()
        assert db.is_crashed
        recovered = db.recover()

        assert not recovered.is_crashed
        state = visible_state(recovered)
        assert state[("Saving", 1)] == 250.0
        assert ("Checking", 2) not in state  # tombstone replayed
        assert state[("Checking", 1)] == 50.0  # bootstrap untouched

    def test_uncommitted_transaction_vanishes(self, db: Database) -> None:
        s = Session(db)
        s.begin("in-flight")
        s.update("Saving", 1, {"Balance": 999.0})
        db.crash()

        recovered = db.recover()
        assert visible_state(recovered)[("Saving", 1)] == 100.0
        assert len(recovered.wal) == 0

    def test_crashed_database_refuses_work(self, db: Database) -> None:
        s = Session(db)
        s.begin("t1")
        db.crash()
        with pytest.raises(DatabaseCrashed):
            s.update("Saving", 1, {"Balance": 1.0})
        with pytest.raises(DatabaseCrashed):
            Session(db).begin("t2")

    def test_crash_mid_commit_is_not_durable(self, db: Database) -> None:
        """The fault fires between WAL append and flush: the client never
        saw the commit succeed, so recovery must drop it."""
        db.install_faults(
            FaultPlan([FaultSpec("crash-mid-commit", start_after=1)])
        )

        s1 = Session(db)
        s1.begin("survives")
        s1.update("Saving", 1, {"Balance": 111.0})
        s1.commit()  # first opportunity skipped (start_after=1)

        s2 = Session(db)
        s2.begin("lost")
        s2.update("Saving", 2, {"Balance": 222.0})
        with pytest.raises(DatabaseCrashed):
            s2.commit()

        assert db.is_crashed
        assert db.wal.unflushed_count == 0  # crash discarded the tail
        assert len(db.wal.durable_records) == 1

        recovered = db.recover()
        state = visible_state(recovered)
        assert state[("Saving", 1)] == 111.0
        assert state[("Saving", 2)] == 100.0

    def test_clock_resumes_after_replayed_horizon(self, db: Database) -> None:
        s = Session(db)
        s.begin("t1")
        s.update("Saving", 1, {"Balance": 1.0})
        s.commit()
        db.crash()

        recovered = db.recover()
        old_ts = recovered.wal.durable_records[-1].commit_ts
        s2 = Session(recovered)
        s2.begin("t2")
        s2.update("Saving", 1, {"Balance": 2.0})
        s2.commit()
        new_record = recovered.wal.durable_records[-1]
        assert new_record.commit_ts > old_ts

    def test_recovery_is_idempotent(self, db: Database) -> None:
        s = Session(db)
        s.begin("t1")
        s.update("Checking", 3, {"Balance": 77.0})
        s.commit()
        db.crash()

        once = db.recover()
        twice = once.recover()
        assert visible_state(once) == visible_state(twice)
        assert once.wal.durable_records == twice.wal.durable_records

    def test_replay_rejects_unordered_prefix(self, db: Database) -> None:
        records = [
            WalRecord(5, 1, "a", ((("Saving", 1), {"CustomerId": 1, "Balance": 1.0}),)),
            WalRecord(3, 2, "b", ((("Saving", 2), {"CustomerId": 2, "Balance": 2.0}),)),
        ]
        with pytest.raises(RecoveryError):
            recover_database(db, records)

    def test_replay_records_requires_fresh_database(self, db: Database) -> None:
        """replay_records is the low-level half: applied to a bootstrapped
        copy it reproduces the durable prefix."""
        s = Session(db)
        s.begin("t1")
        s.update("Saving", 1, {"Balance": 42.0})
        s.commit()

        fresh = make_bank_db(db.config)
        replay_records(fresh, db.wal.durable_records)
        assert visible_state(fresh) == visible_state(db)


# ----------------------------------------------------------------------
# SmallBank money conservation across crash/recover cycles
# ----------------------------------------------------------------------
def test_money_conserved_across_crash_cycles() -> None:
    """Sequential SmallBank under a mid-commit crash every 7th commit.

    The shadow ledger tracks only *acknowledged* commits, so equality of
    the two totals is exactly the durability invariant.
    """
    requests, crash_every, seed = 60, 7, 3
    rng = random.Random(f"chaos-crash/{seed}")
    customers = 12
    txns = get_strategy("base-si").transactions()
    db = build_database(None, PopulationConfig(customers=customers, seed=seed))
    expected = total_money(db)
    crashes = 0

    def install() -> None:
        db.install_faults(
            FaultPlan(
                [
                    FaultSpec(
                        "crash-mid-commit",
                        start_after=crash_every - 1,
                        max_fires=1,
                    )
                ],
                seed=seed + crashes,
            )
        )

    install()
    for _ in range(requests):
        name = customer_name(rng.randint(1, customers))
        other = customer_name(rng.randint(1, customers))
        program, args, delta = rng.choice(
            [
                ("DepositChecking", {"N": name, "V": 10.0}, 10.0),
                ("TransactSaving", {"N": name, "V": 5.0}, 5.0),
                ("WriteCheck", {"N": name, "V": 15.0}, None),
                ("Amalgamate", {"N1": name, "N2": other}, 0.0),
            ]
        )
        if program == "Amalgamate" and name == other:
            continue
        try:
            session = Session(db)
            result = txns.run(session, program, args)
        except ApplicationRollback:
            continue
        except DatabaseCrashed:
            # The in-flight commit was never acknowledged: the shadow
            # ledger ignores it, and so must the recovered database.
            crashes += 1
            db = db.recover()
            install()
            continue
        if program == "WriteCheck":
            # Overdraws pay a penalty of V + 1 instead of V.
            expected -= 15.0 + (1.0 if result else 0.0)
        elif delta is not None:
            expected += delta
    assert crashes >= 2  # the fault plan actually crashed the engine
    assert total_money(db) == pytest.approx(expected, abs=1e-6)


# ----------------------------------------------------------------------
# Property: recovery from EVERY WAL prefix matches the shadow state
# ----------------------------------------------------------------------
TABLES = ("Saving", "Checking")

op_strategy = st.tuples(
    st.sampled_from(("set", "del")),
    st.sampled_from(TABLES),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=100),
)

txn_strategy = st.lists(op_strategy, min_size=1, max_size=3)


@settings(max_examples=25, deadline=None)
@given(
    history=st.lists(txn_strategy, min_size=1, max_size=10),
    from_image=st.booleans(),
)
def test_recovery_from_every_prefix_matches_shadow(history, from_image) -> None:
    db = make_bank_db(customers=3)
    if from_image:  # instantiated, not loaded: the checkpoint is the image
        db = Database(bank_schemas(), db.config, image=db.bootstrap_image())
    shadow: dict[tuple[str, object], object] = visible_state(db)
    snapshots = [dict(shadow)]

    for ops in history:
        session = Session(db)
        session.begin("txn")
        for kind, table, key, value in ops:
            if kind == "del" and (table, key) not in shadow:
                kind = "set"  # deleting an absent row: write instead
            if kind == "set":
                balance = float(value)
                if (table, key) in shadow:
                    session.update(table, key, {"Balance": balance})
                else:
                    session.insert(
                        table, {"CustomerId": key, "Balance": balance}
                    )
                shadow[(table, key)] = balance
            else:
                session.delete(table, key)
                del shadow[(table, key)]
        session.commit()
        snapshots.append(dict(shadow))

    records = db.wal.durable_records
    assert len(records) == len(snapshots) - 1

    for k in range(len(records) + 1):
        recovered = recover_database(db, records[:k])
        assert visible_state(recovered) == snapshots[k], (
            f"recovery from prefix {k}/{len(records)} diverged"
        )
        assert recovered.wal.durable_records == records[:k]
        assert_no_shared_mutable_state(db, recovered)
