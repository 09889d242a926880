"""Engine-level tests of the one-latch concurrency model.

The engine's SI read path takes no latch at all, and everything it
mutates runs under its one commit mutex (DESIGN.md §9), so these tests
attack exactly the guarantees that design leans on:

* commits become visible *atomically* — a concurrent snapshot reader can
  never observe half of a transaction's writes (torn commit);
* writers contending on one row never lose a lock hand-off or an update;
* :meth:`Database.vacuum` never changes what any live snapshot sees;
* the WAL, appended under the commit mutex, keeps records in
  commit-timestamp order, every acknowledged commit durable and a crashed
  commit's record alone out of the durable log;
* the supporting caches (sorted scan keys, schema lookups) stay correct
  while being mutated concurrently.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.engine import Column, Database, EngineConfig, Session, TableSchema
from repro.engine.engine import WaitOn
from repro.engine.storage import Table
from repro.engine.versions import Version, VersionChain
from repro.errors import (
    DatabaseCrashed,
    IntegrityError,
    SchemaError,
    SerializationFailure,
    TransactionAborted,
)
from repro.faults import FaultPlan, FaultSpec

ACCOUNTS = TableSchema(
    name="Accounts",
    columns=(Column("Id", "int"), Column("Balance", "numeric")),
    primary_key="Id",
)


def make_db(config: EngineConfig | None = None, rows: int = 2) -> Database:
    db = Database([ACCOUNTS], config or EngineConfig.postgres())
    for i in range(rows):
        db.load_row("Accounts", {"Id": i, "Balance": 500.0})
    return db


def transfer_forever(
    db: Database, src: int, dst: int, rounds: int, failures: list
) -> None:
    """Move 1.0 from src to dst, ``rounds`` committed times, retrying
    serialization losses and lock waits as fresh transactions."""
    committed = 0
    while committed < rounds:
        txn = db.begin("transfer")
        try:
            a = db.read(txn, "Accounts", src)
            b = db.read(txn, "Accounts", dst)
            for key, row in ((src, a), (dst, b)):
                delta = -1.0 if key == src else 1.0
                result = db.write(
                    txn,
                    "Accounts",
                    key,
                    {"Id": key, "Balance": row["Balance"] + delta},
                )
                if isinstance(result, WaitOn):
                    raise _Blocked()
            db.commit(txn)
            committed += 1
        except _Blocked:
            db.abort(txn)
        except (SerializationFailure, TransactionAborted):
            pass  # engine already aborted the transaction
        except BaseException as exc:  # pragma: no cover - diagnostics
            failures.append(exc)
            db.abort(txn)
            return


class _Blocked(Exception):
    pass


# ----------------------------------------------------------------------
# Torn-commit / snapshot-atomicity
# ----------------------------------------------------------------------
class TestSnapshotAtomicity:
    def test_readers_never_see_torn_commits(self) -> None:
        """A transfer writes two rows; the sum must be invariant in every
        snapshot, no matter how reads race the publication."""
        db = make_db()
        failures: list = []
        stop = threading.Event()
        torn: list = []

        def auditor() -> None:
            while not stop.is_set():
                txn = db.begin("audit")
                a = db.read(txn, "Accounts", 0)
                b = db.read(txn, "Accounts", 1)
                total = a["Balance"] + b["Balance"]
                if abs(total - 1000.0) > 1e-9:
                    torn.append((txn.snapshot_ts, total))
                db.commit(txn)

        writer = threading.Thread(
            target=transfer_forever, args=(db, 0, 1, 300, failures)
        )
        auditors = [threading.Thread(target=auditor) for _ in range(3)]
        writer.start()
        for t in auditors:
            t.start()
        writer.join(timeout=60)
        stop.set()
        for t in auditors:
            t.join(timeout=60)
        assert not failures, failures
        assert not torn, f"torn snapshots observed: {torn[:5]}"
        assert not writer.is_alive()

    def test_repeated_reads_stable_while_writers_commit(self) -> None:
        """An SI transaction re-reading a row always gets its snapshot's
        version even as newer versions are published concurrently."""
        db = make_db()
        reader = db.begin("pin")
        before = db.read(reader, "Accounts", 0)["Balance"]
        failures: list = []
        writer = threading.Thread(
            target=transfer_forever, args=(db, 0, 1, 100, failures)
        )
        writer.start()
        for _ in range(200):
            assert db.read(reader, "Accounts", 0)["Balance"] == before
        writer.join(timeout=60)
        assert not failures, failures
        assert db.read(reader, "Accounts", 0)["Balance"] == before
        fresh = db.begin("after")
        assert db.read(fresh, "Accounts", 0)["Balance"] == before - 100.0


# ----------------------------------------------------------------------
# Contended writers
# ----------------------------------------------------------------------
class TestContendedWriters:
    def test_contended_increments_are_never_lost(self) -> None:
        """Many threads increment one hot row; the final balance counts
        every acknowledged commit exactly once (no lost lock hand-off)."""
        db = make_db(rows=1)
        threads = 6
        rounds = 40
        failures: list = []

        def bump() -> None:
            committed = 0
            while committed < rounds:
                txn = db.begin("bump")
                try:
                    row = db.read(txn, "Accounts", 0)
                    result = db.write(
                        txn,
                        "Accounts",
                        0,
                        {"Id": 0, "Balance": row["Balance"] + 1.0},
                    )
                    if isinstance(result, WaitOn):
                        db.abort(txn)
                        continue
                    db.commit(txn)
                    committed += 1
                except (SerializationFailure, TransactionAborted):
                    pass
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)
                    return

        pool = [threading.Thread(target=bump) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=120)
            assert not t.is_alive(), "incrementer hung"
        assert not failures, failures
        txn = db.begin("check")
        assert db.read(txn, "Accounts", 0)["Balance"] == pytest.approx(
            500.0 + threads * rounds
        )

    @pytest.mark.parametrize("preset", ["postgres", "s2pl", "ssi"])
    def test_lock_waiters_on_one_row_are_all_woken(self, preset) -> None:
        """Sessions queue for one hot row's lock, with the interpreter
        switching threads every microsecond: each wake-up registers under
        the commit mutex that the holder resolves under, so no waiter
        sleeps through its blocker's commit and no increment is lost."""
        db = make_db(getattr(EngineConfig, preset)(), rows=1)
        threads, rounds = 6, 15
        failures: list = []

        def bump() -> None:
            session, committed = Session(db), 0
            while committed < rounds:
                session.begin("bump")
                try:
                    row = session.select_for_update("Accounts", 0)
                    session.update("Accounts", 0, {"Balance": row["Balance"] + 1.0})
                    session.commit()
                    committed += 1
                except TransactionAborted:
                    pass
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=bump) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=120)
                assert not t.is_alive(), "a lock waiter was never woken"
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures
        txn = db.begin("check")
        assert db.read(txn, "Accounts", 0)["Balance"] == 500.0 + threads * rounds


# ----------------------------------------------------------------------
# Vacuum
# ----------------------------------------------------------------------
class TestVacuum:
    def _commit_balance(self, db: Database, key: int, balance: float) -> None:
        txn = db.begin("w")
        db.write(txn, "Accounts", key, {"Id": key, "Balance": balance})
        db.commit(txn)

    def test_vacuum_preserves_live_snapshot_visibility(self) -> None:
        db = make_db(rows=1)
        for balance in (510.0, 520.0, 530.0):
            self._commit_balance(db, 0, balance)
        pinned = db.begin("pinned")  # sees 530.0
        seen_before = db.read(pinned, "Accounts", 0)["Balance"]
        for balance in (540.0, 550.0):
            self._commit_balance(db, 0, balance)

        chain = db.catalog.table("Accounts").chain(0)
        length_before = len(chain)
        pruned = db.vacuum()

        # Everything older than the pinned snapshot's version is gone ...
        assert pruned > 0
        assert len(chain) == length_before - pruned
        # ... but the pinned snapshot still reads exactly what it read.
        fresh_reader = db.begin("r2")
        assert db.read(pinned, "Accounts", 0)["Balance"] == seen_before
        assert db.read(fresh_reader, "Accounts", 0)["Balance"] == 550.0

    def test_vacuum_with_no_active_txns_keeps_newest(self) -> None:
        db = make_db(rows=1)
        for balance in (510.0, 520.0):
            self._commit_balance(db, 0, balance)
        chain = db.catalog.table("Accounts").chain(0)
        assert len(chain) == 3  # bootstrap + two updates
        assert db.vacuum() == 2
        assert len(chain) == 1
        txn = db.begin("r")
        assert db.read(txn, "Accounts", 0)["Balance"] == 520.0

    def test_vacuum_is_idempotent(self) -> None:
        db = make_db(rows=1)
        self._commit_balance(db, 0, 777.0)
        assert db.vacuum() == 1
        assert db.vacuum() == 0

    def test_chain_prune_units(self) -> None:
        chain = VersionChain()
        assert chain.prune(10) == 0  # empty
        for ts in (2, 4, 6):
            chain.append_committed(Version(ts, txid=1, value={"v": ts}))
        assert chain.prune(1) == 0  # nothing at/below horizon: keep all
        assert chain.prune(5) == 1  # drops ts=2, keeps ts=4 (visible) + 6
        assert [v.commit_ts for v in chain.committed] == [4, 6]
        assert chain.visible(5).commit_ts == 4
        assert chain.prune(100) == 1  # only the newest survives
        assert [v.commit_ts for v in chain.committed] == [6]

    def test_pruned_list_is_replaced_not_mutated(self) -> None:
        chain = VersionChain()
        for ts in (1, 2, 3):
            chain.append_committed(Version(ts, txid=1, value={"v": ts}))
        held = chain.versions  # what an in-flight reader would hold
        chain.prune(3)
        assert [v.commit_ts for v in held] == [1, 2, 3]  # reader unharmed


# ----------------------------------------------------------------------
# WAL ordering and durability
# ----------------------------------------------------------------------
def commit_until_crash(db: Database, key: int, acked: list, lost: list) -> None:
    """Commit one-row updates of ``key`` until the database crashes,
    recording each acknowledged commit's txid in ``acked`` and the txid
    of the commit the injected crash took in ``lost``."""
    while True:
        try:
            txn = db.begin("until-crash")
            db.update(txn, "Accounts", key, {"Balance": float(txn.txid)})
            db.commit(txn)
        except DatabaseCrashed as crashed:
            if "crash injected" in str(crashed):
                lost.append(txn.txid)
            return
        acked.append(txn.txid)


class TestGroupCommit:
    """What the engine's group commit promised, for a record appended and
    flushed in the hold of the commit mutex that decides the commit."""

    def test_concurrent_commits_keep_wal_ordered_and_durable(self) -> None:
        db = make_db(rows=8)
        failures: list = []
        pool = [
            threading.Thread(
                target=transfer_forever,
                args=(db, i, (i + 1) % 8, 20, failures),
            )
            for i in range(4)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=120)
            assert not t.is_alive()
        assert not failures, failures
        timestamps = [r.commit_ts for r in db.wal]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == len(timestamps)
        assert db.wal.unflushed_count == 0  # every ack'd commit is durable
        assert len(db.wal) == 4 * 20

    def test_every_acknowledged_commit_is_in_durable_records(self) -> None:
        db = make_db(rows=4)
        acked: list = [[] for _ in range(4)]
        done = threading.Barrier(4)

        def commit_rounds(key: int) -> None:
            done.wait()
            for _ in range(50):
                txn = db.begin("ack")
                db.update(txn, "Accounts", key, {"Balance": float(txn.txid)})
                db.commit(txn)
                acked[key].append((txn.txid, txn.commit_ts))

        pool = [threading.Thread(target=commit_rounds, args=(k,)) for k in range(4)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=120)
            assert not t.is_alive()
        durable = {(r.txid, r.commit_ts) for r in db.wal.durable_records}
        assert durable == {ack for per_thread in acked for ack in per_thread}
        assert len(durable) == 4 * 50

    def test_a_crash_mid_commit_loses_exactly_its_own_record(self) -> None:
        db = make_db(rows=4)
        db.install_faults(
            FaultPlan([FaultSpec("crash-mid-commit", start_after=60, max_fires=1)])
        )
        acked: list = []
        lost: list = []
        pool = [
            threading.Thread(target=commit_until_crash, args=(db, k, acked, lost))
            for k in range(4)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=120)
            assert not t.is_alive()
        assert db.is_crashed and db.faults.fired("crash-mid-commit") == 1
        assert db.wal.unflushed_count == 0  # the crash dropped the tail
        durable = [r.txid for r in db.wal.durable_records]
        assert sorted(durable) == sorted(acked) and len(acked) == 60
        # The crashed commit raised, and its record is nowhere in the log.
        assert len(lost) == 1 and lost[0] not in durable
        recovered = db.recover()
        assert [r.txid for r in recovered.wal.durable_records] == durable

    def test_unique_violation_at_commit_publishes_nothing(self) -> None:
        """Commit-time validation happens before publication: a unique
        violation leaves no versions, no WAL record and no timestamp."""
        schema = TableSchema(
            name="T",
            columns=(Column("Id", "int"), Column("U", "int")),
            primary_key="Id",
            unique=("U",),
        )
        db = Database([schema], EngineConfig.postgres())
        db.load_row("T", {"Id": 1, "U": 7})
        txn = db.begin("dup")
        db.insert(txn, "T", {"Id": 2, "U": 7})
        ts_before = db.last_ts
        with pytest.raises(IntegrityError):
            db.commit(txn)
        assert db.last_ts == ts_before  # no tick consumed
        assert len(db.wal) == 0
        chain = db.catalog.table("T").chain(2)
        assert chain is None or len(chain) == 0  # nothing published


# ----------------------------------------------------------------------
# Caches: sorted scan keys and schema lookups
# ----------------------------------------------------------------------
class TestCaches:
    def test_sorted_keys_cache_reuses_tuple_until_insert(self) -> None:
        table = Table(ACCOUNTS)
        db = make_db(rows=3)
        accounts = db.catalog.table("Accounts")
        first = accounts.sorted_keys()
        assert accounts.sorted_keys() is first  # cache hit, same object
        txn = db.begin("ins")
        db.insert(txn, "Accounts", {"Id": 99, "Balance": 1.0})
        db.commit(txn)
        rebuilt = accounts.sorted_keys()
        assert rebuilt is not first
        assert 99 in rebuilt
        assert list(rebuilt) == sorted(rebuilt, key=repr)
        assert table.sorted_keys() == ()  # empty table: empty cache

    def test_scan_sees_concurrent_inserts_eventually(self) -> None:
        db = make_db(rows=2)
        txn = db.begin("ins")
        db.insert(txn, "Accounts", {"Id": 50, "Balance": 9.0})
        db.commit(txn)
        fresh = db.begin("scan")
        keys = [key for key, _ in db.scan(fresh, "Accounts")]
        assert keys == sorted([0, 1, 50], key=repr)

    def test_schema_lookups_are_memoized(self) -> None:
        assert ACCOUNTS.column_names is ACCOUNTS.column_names  # same tuple
        assert ACCOUNTS.column_name_set == frozenset({"Id", "Balance"})
        assert ACCOUNTS.column("Balance").kind == "numeric"
        with pytest.raises(SchemaError):
            ACCOUNTS.column("Nope")

    def test_validate_row_reports_extra_and_missing(self) -> None:
        with pytest.raises(SchemaError):
            ACCOUNTS.validate_row({"Id": 1, "Balance": 1.0, "Bogus": 2})
        with pytest.raises(IntegrityError):
            ACCOUNTS.validate_row({"Id": 1})
        assert ACCOUNTS.validate_row({"Id": 1, "Balance": 1.0}) == {
            "Id": 1,
            "Balance": 1.0,
        }
