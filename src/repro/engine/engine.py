"""The MVCC database engine.

:class:`Database` is deliberately **non-blocking**: every operation that a
real engine would block on returns a :class:`WaitOn` value naming the
transactions that must resolve first.  The session layer
(:mod:`repro.engine.session`) turns that into an actual wait — a real
thread wait, a simulated-time wait, or a value surfaced to a test that is
stepping transactions by hand.  This single design choice lets the same
engine power correctness tests, exhaustive interleaving exploration and the
performance simulator.

Concurrency-control semantics implemented here (see
:mod:`repro.engine.config` for how they are selected):

* **SI reads** never block and never lock: they see the newest version
  committed at or before the transaction's snapshot (plus own writes).
* **SI writes** take the row's exclusive lock.  Under *first-updater-wins*
  the writer aborts immediately when the newest committed version (or a
  commercial-style SFU mark) is newer than its snapshot; a writer that was
  blocked re-checks after waking, so a holder's commit kills the waiter —
  exactly PostgreSQL's behaviour.  Under *first-committer-wins* the check
  moves to commit time.
* **UPDATE** is one call, :meth:`Database.update`: the row is read as a
  read reads it, the changes are applied to one copy and it is staged as
  a write stages it.
* **SELECT FOR UPDATE** takes the exclusive lock and performs the snapshot
  check; in ``CC_WRITE`` mode (the commercial platform) it additionally
  publishes a concurrency-control write at commit so that later concurrent
  writers fail, making the promoted edge non-vulnerable.
* **S2PL** takes shared locks for reads and exclusive locks for writes,
  all held to the end of the transaction; there is no snapshot.
* **SSI** layers the runtime dangerous-structure certifier over SI.

Threading model (DESIGN.md §9)
------------------------------

One latch, the commit mutex (``_commit_mutex``), guards everything the
engine mutates: ``begin`` (snapshot acquisition), the row locks and the
waits-for graph, staging an uncommitted version, the SSI certifier's
state, commit validation + version publication, abort, the registration
of resolution callbacks and :meth:`vacuum`.  A blocked operation builds
its :class:`WaitOn` in the same hold as the failed acquire, so every
blocker it names is still active.  Python runs one thread at a time, so
finer latches would buy no parallelism and cost an acquisition per row.

**SI/SSI reads take no latch** to find their version.  They traverse only
structures that are published atomically and never mutated in place:
version chains (append-only lists of immutable :class:`Version` tuples),
the tables' key dictionaries (CPython dict get/set are atomic under the
GIL), copy-on-write index tuples and the sorted-key cache.  The commit
protocol below guarantees a reader can never observe a version whose
commit timestamp its snapshot covers *partially*.  (SSI then records the
read with its certifier, under the commit mutex.)

The clock is one integer, :attr:`Database.last_ts`, ticked under the
commit mutex.  Snapshot-consistent publication: a committing transaction
*reserves* ``commit_ts = last_ts + 1`` under the commit mutex, publishes
its versions carrying that timestamp, and only then ticks the clock.
Every snapshot in existence satisfies ``snapshot_ts <= last_ts <
commit_ts``, so the in-flight versions are invisible until the tick makes
them atomically visible; ``begin`` also runs under the commit mutex, so
no new snapshot can land between the reservation and the tick.

In a cluster it is a Lamport clock (Clock-SI, DESIGN.md §12): a 2PC
decision may publish below ``last_ts``, so a read of a row a PREPARED
cluster branch wrote at or below its snapshot waits for the decision.

Durability: the WAL record is appended and flushed
(``WriteAheadLog.append(record, durable=True)``) in the same hold of the
commit mutex that publishes the commit, so the log is in timestamp order
and a commit is durable before any snapshot can see it.  The log is in
memory, so there is nothing to batch: one record is one flush.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Mapping, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - avoids the obs -> analysis cycle
    from repro.obs import Observability

from repro.engine.config import (
    EngineConfig,
    IsolationLevel,
    SfuSemantics,
    WriteConflictPolicy,
)
from repro.engine.locks import LockManager, LockMode, RowId
from repro.engine.ssi import SsiCertifier
from repro.engine.storage import BootstrapImage, Catalog, Table, TableSchema
from repro.engine.transaction import OWN_WRITE, Transaction, TxnStatus
from repro.engine.versions import FrozenRow, Version, VersionChain, freeze_row
from repro.engine.wal import WalRecord, WriteAheadLog
from repro.errors import (
    DatabaseCrashed,
    FaultInjected,
    IntegrityError,
    SchemaError,
    SerializationFailure,
    SnapshotTooOld,
    SsiAbort,
    TransactionStateError,
)
from repro.faults import FaultPlan

Row = Mapping[str, object]
#: What an UPDATE sets: a column mapping, or a callable computing one from
#: the current row.
Changes = Union[Mapping[str, object], Callable[[Row], Mapping[str, object]]]

_ACTIVE = TxnStatus.ACTIVE
_PREPARED = TxnStatus.PREPARED
_EXCLUSIVE = LockMode.EXCLUSIVE
#: ``_built(Version, fields)`` is ``Version(*fields)`` without the Python
#: frame of a NamedTuple's ``__new__``: a commit builds one per row written.
_built = tuple.__new__
#: Fills the :class:`FrozenRow` an UPDATE has just built.
_dict_update = dict.update


@dataclass(frozen=True)
class WaitOn:
    """Returned when an operation must wait for other transactions.

    ``blockers`` is non-empty and contains only transactions that were
    active at the time of the call.  The caller should wait for *any* of
    them to resolve and then retry the operation.
    """

    blockers: frozenset[Transaction]

    def __post_init__(self) -> None:
        if not self.blockers:
            raise ValueError("WaitOn requires at least one blocker")

    @property
    def blocker_ids(self) -> frozenset[int]:
        return frozenset(t.txid for t in self.blockers)


class Database:
    """An in-memory multi-version database engine.

    Parameters
    ----------
    schemas:
        Table schemas making up the database.
    config:
        Concurrency-control behaviour (default: PostgreSQL-style SI).
    observers:
        Optional callables invoked as ``observer(txn)`` after every commit
        and abort — the hook used by the dynamic-analysis recorder.
    faults:
        Optional :class:`~repro.faults.FaultPlan`.  With none installed
        (the default) every injection hook is a no-op.
    image:
        Optional :class:`~repro.engine.storage.BootstrapImage` to start
        from (see :meth:`bootstrap_image`): its rows are installed without
        being validated again, or copied — the tables read them from the
        image's own dicts.  Chains, indexes and everything else belong to
        this instance.
    """

    def __init__(
        self,
        schemas: Iterable[TableSchema],
        config: Optional[EngineConfig] = None,
        observers: Optional[
            list[Callable[[Transaction], None]]
        ] = None,
        faults: Optional[FaultPlan] = None,
        image: Optional[BootstrapImage] = None,
    ) -> None:
        self.config = config or EngineConfig.postgres()
        self.catalog = Catalog(list(schemas), image)
        #: The logical clock: the most recently issued start or commit
        #: timestamp (0, the bootstrap data's, before any).  Ticked only
        #: under the commit mutex, so no timestamp is issued twice.
        self.last_ts = 0
        self._horizon = 0  # the last vacuum's: ``begin`` refuses older snapshots
        self.locks = LockManager(self.config.lock_timeout)
        # The lock table's two dicts, aliased: ``_stage`` grants a row
        # nobody holds and ``commit`` frees a transaction's rows on them
        # in their own frames (see LockManager).
        self._row_locks = self.locks.table
        self._locks_held = self.locks.held
        self.wal = WriteAheadLog()
        self.faults = faults
        # The engine's one latch (see the module docstring).  Re-entrant
        # because abort paths nest inside commit and write paths.
        self._commit_mutex = threading.RLock()
        # Hot-path accelerators: the isolation / conflict-policy tests and
        # the table lookup run on every read or write, so resolve them to
        # one attribute/dict probe.  _table_map aliases the catalog's own
        # (mutable) mapping, so tables added later are seen here too.
        self._s2pl = self.config.isolation is IsolationLevel.S2PL
        policy, Policy = self.config.write_conflict, WriteConflictPolicy
        self._first_updater_wins = policy is Policy.FIRST_UPDATER_WINS and not self._s2pl
        self._first_committer_wins = policy is Policy.FIRST_COMMITTER_WINS
        self._table_map = self.catalog._tables
        self._active: dict[int, Transaction] = {}
        self._observers = list(observers or [])
        self._ssi = SsiCertifier() if self.config.isolation is IsolationLevel.SSI else None
        # Observability bundle (DESIGN.md §10).  ``None`` by default: every
        # hook below is then a single attribute-load + ``is not None``
        # check, the same zero-overhead discipline as ``faults``.
        self._obs: "Observability | None" = None
        #: Aborts by ``reason`` tag since this instance was built, counted
        #: in ``_abort_locked`` — all but the "user" rollbacks a session
        #: asked for.  A server's ``STATS`` serves it.
        self.aborts_by_reason: dict[str, int] = {}
        self._txid_counter = 0
        self._crashed = False
        # Bootstrap rows double as the recovery checkpoint: load_row data
        # is "already on disk" and survives crashes without a WAL record.
        # An image that came in through ``image=`` or went out through
        # ``bootstrap_image()`` is shared: load_row copies it before writing.
        self._image = image if image is not None else BootstrapImage()
        self._image_shared = image is not None
        # Two-phase-commit participant state (DESIGN.md §12) -------------
        #: Live prepared transactions by global transaction id.  A
        #: prepared transaction also stays in ``_active`` (it pins the
        #: vacuum horizon and counts as concurrent for the SSI certifier)
        #: but no session owns it any more: only a coordinator decision
        #: can resolve it.
        self._prepared: dict[str, Transaction] = {}
        #: Redo payloads of prepare records that survived a crash with no
        #: decision on the log — in-doubt until the coordinator re-delivers
        #: its decision (presumed abort: an ABORT_2PC needs no durable
        #: trace).  Populated by :mod:`repro.engine.recovery`.
        self._in_doubt: dict[str, WalRecord] = {}
        #: gtid -> the placeholder transaction holding an in-doubt
        #: prepare's row locks until its decision (see ``hold_in_doubt``).
        self._in_doubt_holders: dict[str, Transaction] = {}
        #: Decided gtids -> ("committed", commit_ts) | ("aborted", 0), for
        #: idempotent decision re-delivery (a coordinator may retry after
        #: a timeout and must get the same answer).
        self._resolved_gtids: dict[str, tuple[str, int]] = {}

    # ------------------------------------------------------------------
    # Bootstrap loading (outside any transaction)
    # ------------------------------------------------------------------
    def load_row(self, table_name: str, row: Row) -> None:
        """Install one row as pre-existing data: :meth:`load_rows` of one."""
        self.load_rows(((table_name, row),))

    def load_rows(self, pairs: Iterable[tuple[str, Row]]) -> None:
        """Install ``(table, row)`` pairs, in order, as pre-existing data
        (commit timestamp 0), under one hold of the commit mutex.

        Only valid before any transaction has committed to the same key.
        Used by benchmark population so that loading cost never pollutes
        measurements.
        """
        with self._commit_mutex:
            if self._crashed:
                self._ensure_not_crashed()
            if self._image_shared:
                # Tables still reading the shared dicts see the same rows
                # in the copy; each moves over on its first load below.
                self._image = self._image.copy()
                self._image_shared = False
            loading = {}  # table name -> (table, its TableImage in _image)
            for table_name, row in pairs:
                entry = loading.get(table_name)
                if entry is None:
                    table = self.catalog.table(table_name)
                    entry = loading[table_name] = (
                        table, self._image.table(table.schema)
                    )
                    # Both dicts hold the same rows until the first add.
                    table.base = entry[1].versions
                table, image = entry
                schema = table.schema
                value = FrozenRow(schema.validate_row(row))
                key = value[schema.primary_key]
                version = Version(commit_ts=0, txid=0, value=value)
                chain = table.rows.get(key)
                if key in table.base or (chain is not None and len(chain) > 0):
                    raise IntegrityError(
                        f"row {key!r} already exists in {table_name!r}"
                    )
                if chain is not None:  # a writer staged this key first
                    chain.append_committed(version)
                if schema.unique:  # only unique columns are indexed
                    table.index_committed_version(key, version)
                image.add(key, version)

    def bootstrap_image(self) -> BootstrapImage:
        """Everything :meth:`load_row` installed here, as an immutable image.

        ``Database(schemas, config, image=...)`` instantiates from it —
        how :meth:`recover` restores the checkpoint and how a population
        is built once and used many times.  Rows loaded here afterwards
        go to a copy, so the returned image never changes.
        """
        with self._commit_mutex:
            self._image_shared = True
            return self._image

    def add_observer(self, observer: Callable[[Transaction], None]) -> None:
        self._observers.append(observer)

    def install_faults(self, plan: "FaultPlan | None") -> None:
        """Install (or clear) the fault-injection plan."""
        with self._commit_mutex:
            self.faults = plan

    def install_observability(self, obs: "Observability | None") -> None:
        """Install (or clear) the observability bundle.

        With none installed (the default) every trace/metrics hook is a
        no-op ``None`` check and measured figures stay bit-identical.
        """
        with self._commit_mutex:
            self._obs = obs

    @property
    def obs(self) -> "Observability | None":
        return self._obs

    def observe_version_stats(self) -> None:
        """Sample version-chain length gauges into the installed registry.

        Cheap enough to call at the end of a run (the drivers do); a no-op
        without an installed :class:`~repro.obs.Observability`.
        """
        obs = self._obs
        if obs is None:
            return
        with self._commit_mutex:
            lengths = []
            for table in self.catalog:
                rows = table.rows
                lengths += [len(chain.versions) for chain in list(rows.values())]
                # A row nobody wrote is its bootstrap version alone.
                lengths += [1 for key in table.base if key not in rows]
        obs.engine_version_stats(lengths)

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    @property
    def is_crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Simulate a power failure.

        All in-memory state is lost: active transactions vanish (their
        locks and uncommitted versions are irrelevant — nothing of them
        was durable), and the WAL's unflushed tail is discarded.  Every
        subsequent operation raises :class:`~repro.errors.DatabaseCrashed`
        until :meth:`recover` produces a fresh instance.
        """
        with self._commit_mutex:
            self._crash_locked()

    def _crash_locked(self) -> None:
        self._crashed = True
        # Threads blocked on a lock held by one of these transactions are
        # sleeping until its resolution callbacks fire.  The crash
        # vaporizes the transaction, so mark it aborted and fire the
        # callbacks here — woken waiters retry their operation and
        # surface DatabaseCrashed instead of sleeping forever.
        # (In-doubt lock holders sit in ``_active`` like live prepared
        # transactions, so they are among the casualties.)
        casualties = list(self._active.values()) + list(
            self._prepared.values()
        )
        self._active.clear()
        # Prepared transactions lose their in-memory state like everyone
        # else; their durable prepare records make them in-doubt on the
        # *recovered* instance (recovery re-populates _in_doubt there).
        self._prepared.clear()
        self._resolved_gtids.clear()
        self._in_doubt.clear()
        self._in_doubt_holders.clear()
        for txn in casualties:
            txn.status = TxnStatus.ABORTED
            for callback in txn.drain_callbacks():
                callback(txn)
        # Every acknowledged record was flushed in its commit's hold of the
        # mutex; only a crash-mid-commit record sits in the volatile tail.
        self.wal.truncate_to_flushed()

    def recover(self) -> "Database":
        """Rebuild a fresh :class:`Database` from the durable state.

        Durable state = the bootstrap rows (the checkpoint image) plus the
        flushed WAL prefix.  The recovered instance carries the same
        configuration, observers and fault plan.  Callable on a live
        instance too (point-in-time clone of the durable state).
        """
        from repro.engine.recovery import recover_database

        return recover_database(self)

    def _ensure_not_crashed(self) -> None:
        if self._crashed:
            raise DatabaseCrashed(
                "database has crashed; call recover() to rebuild from the WAL"
            )

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def begin(
        self,
        label: str = "",
        ts: Optional[int] = None,
        snapshot_ts: Optional[int] = None,
    ) -> Transaction:
        """Start a transaction at a fresh tick of the clock.  A cluster
        branch brings ``ts``, which the clock first advances to, and, past
        a transaction's first branch, the ``snapshot_ts`` that one got,
        taken exactly unless older than the last vacuum's horizon."""
        with self._commit_mutex:
            if self._crashed:
                self._ensure_not_crashed()
            if ts is None:
                start_ts = self.last_ts = self.last_ts + 1
            elif snapshot_ts is None:
                start_ts = self.last_ts = max(self.last_ts, ts) + 1
            elif snapshot_ts >= self._horizon:
                start_ts = snapshot_ts
                self.last_ts = max(self.last_ts, ts, snapshot_ts)
            else:
                counts = self.aborts_by_reason
                counts["snapshot-too-old"] = counts.get("snapshot-too-old", 0) + 1
                raise SnapshotTooOld(
                    f"{snapshot_ts} < horizon {self._horizon}", self._horizon
                )
            if self._ssi is not None or self._obs is not None:
                txn = self._begin_locked(start_ts, label)
            else:
                # ``_begin_locked`` with nobody to tell, in this frame.
                txid = self._txid_counter = self._txid_counter + 1
                txn = self._active[txid] = Transaction(
                    txid, start_ts, self._commit_mutex, label=label
                )
            if ts is not None:
                txn.clocked = True
            return txn

    def _begin_locked(self, start_ts: int, label: str) -> Transaction:
        self._txid_counter += 1
        txn = Transaction(self._txid_counter, start_ts, self._commit_mutex, label=label)
        self._active[txn.txid] = txn
        if self._ssi is not None:
            self._ssi.on_begin(txn)
        if self._obs is not None:
            self._obs.engine_begin(txn)
        return txn

    @property
    def active_transactions(self) -> tuple[Transaction, ...]:
        with self._commit_mutex:
            return tuple(self._active.values())

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(
        self, txn: Transaction, table_name: str, key: Hashable
    ) -> "Row | None | WaitOn":
        """Read one row by primary key.

        Under SI this takes no lock: the body below is the engine's
        hottest path and touches only atomically-published immutable
        state (see the module docstring).  It is deliberately flat — the
        per-read cost budget is well under a microsecond.  It returns
        :class:`WaitOn` on a prepared row (:meth:`_prepared_writer`) and,
        under S2PL, when the shared lock conflicts with a writer.
        """
        if self._s2pl:
            return self._read_s2pl(txn, table_name, key)
        if self._crashed:
            self._ensure_not_crashed()
        if txn.status is not _ACTIVE:
            txn.ensure_active()
        ssi = self._ssi
        if ssi is not None and ssi.is_doomed(txn):
            self._check_doomed(txn)
        row_id = (table_name, key)
        reads = txn.reads
        writes = txn.writes
        if row_id in writes:
            if row_id not in reads:
                reads[row_id] = OWN_WRITE
            return writes[row_id]
        table = self._table_map.get(table_name)
        if table is None:
            self.catalog.table(table_name)  # raises SchemaError
        chain = table.rows.get(key)
        # Inlined Table.visible(): newest committed version at or below
        # the snapshot.  chain.versions is append-only and replaced (not
        # mutated) by vacuum, so iterating it lock-free is safe; a
        # tombstone's value is None, which doubles as "row absent".  A row
        # with no chain is its bootstrap version, at timestamp 0.
        value = None
        version_ts = 0
        if chain is not None:
            snapshot_ts = txn.snapshot_ts
            if chain.uncommitted is not None:
                owner = self._prepared_writer(chain, snapshot_ts)
                if owner is not None:
                    return WaitOn(frozenset((owner,)))
            for version in reversed(chain.versions):
                if version.commit_ts <= snapshot_ts:
                    value = version.value
                    version_ts = version.commit_ts
                    break
        else:
            version = table.base.get(key)
            if version is not None:
                value = version.value
        if row_id not in reads:
            reads[row_id] = version_ts
        if ssi is not None:
            with self._commit_mutex:
                ssi.on_read(txn, row_id, self)
        obs = self._obs
        if obs is not None:
            obs.engine_read(txn, row_id, version_ts)
        return value

    def _read_s2pl(
        self, txn: Transaction, table_name: str, key: Hashable
    ) -> "Row | None | WaitOn":
        """S2PL read: share-lock the row, read latest."""
        self._ensure_not_crashed()
        txn.ensure_active()
        table = self.catalog.table(table_name)
        row_id: RowId = (table_name, key)
        with self._commit_mutex:
            blockers = self.locks.try_acquire(txn.txid, row_id, LockMode.SHARED)
            if blockers:
                return self._blocked(blockers)
        return self._read_latest(txn, table, row_id)

    def lookup_unique(
        self, txn: Transaction, table_name: str, column: str, value: Hashable
    ) -> "tuple[Hashable, Row] | None | WaitOn":
        """Find the row whose unique ``column`` equals ``value``.

        Records a predicate read (the lookup's result set may be changed by
        concurrent inserts/deletes — a phantom source).  Under S2PL the
        matched row is share-locked.  Lock-free under SI: the superset
        index is a copy-on-write tuple per value.  It returns
        :class:`WaitOn` as :meth:`read` does, and also on a prepared row
        the index does not hold yet (:meth:`_prepared_with_value`).
        """
        self._ensure_not_crashed()
        txn.ensure_active()
        self._check_doomed(txn)
        table = self.catalog.table(table_name)
        snapshot = self._read_horizon(txn)
        if self._prepared or self._in_doubt_holders:
            owner = self._prepared_with_value(table, column, value, snapshot)
            if owner is not None:
                return WaitOn(frozenset((owner,)))
        found = table.lookup_unique(column, value, snapshot)
        txn.record_predicate(
            table_name,
            f"{column} = {value!r}",
            (found[0],) if found else (),
        )
        if found is None:
            return None
        key, _ = found
        result = self.read(txn, table_name, key)
        if isinstance(result, WaitOn) or result is None:
            return result
        return key, result

    def scan(
        self,
        txn: Transaction,
        table_name: str,
        predicate: Optional[Callable[[Row], bool]] = None,
        description: str = "<scan>",
    ) -> "list[tuple[Hashable, Row]] | WaitOn":
        """Predicate scan over visible rows.

        Under S2PL every matched row is share-locked (predicate locking
        itself is not modelled; the workloads here never insert during a
        measurement run, which the analysis layer checks).  Key order
        comes from the table's sorted-key cache instead of re-sorting on
        every call.
        """
        self._ensure_not_crashed()
        txn.ensure_active()
        self._check_doomed(txn)
        table = self.catalog.table(table_name)
        snapshot = self._read_horizon(txn)
        keys: "tuple[Hashable, ...] | list[Hashable]" = table.sorted_keys()
        # Own writes always have a chain (write() creates it), so the
        # cache already covers them; the guard below only fires if that
        # invariant is ever broken.
        extra = [
            k
            for tn, k in txn.writes
            if tn == table_name and k not in table.rows
        ]
        if extra:
            keys = sorted([*keys, *extra], key=repr)
        matches: list[tuple[Hashable, Row]] = []
        prepared: set[Transaction] = set()
        for key in keys:
            row_id = (table_name, key)
            if row_id in txn.writes:
                merged = txn.writes[row_id]
            else:
                owner = self._prepared_writer(table.rows.get(key), snapshot)
                if owner is not None:
                    prepared.add(owner)
                merged = table.visible_row(key, snapshot)
            if merged is None:
                continue
            if predicate is not None and not predicate(merged):
                continue
            matches.append((key, merged))
        if prepared:
            return WaitOn(frozenset(prepared))
        if self._s2pl:
            blocker_ids: set[int] = set()
            with self._commit_mutex:
                for key, _ in matches:
                    blocker_ids.update(
                        self.locks.try_acquire(
                            txn.txid, (table_name, key), LockMode.SHARED
                        )
                    )
                if blocker_ids:
                    return self._blocked(blocker_ids)
        txn.record_predicate(
            table_name, description, tuple(key for key, _ in matches)
        )
        for key, _ in matches:
            self._record_item_read(txn, table, (table_name, key))
        return matches

    def select_for_update(
        self, txn: Transaction, table_name: str, key: Hashable
    ) -> "Row | None | WaitOn":
        """``SELECT ... FOR UPDATE`` with platform-dependent semantics.

        Both flavours take the exclusive row lock and fail (first-updater
        style) when the snapshot no longer reflects the newest committed
        state.  In ``CC_WRITE`` mode the row is additionally added to the
        transaction's concurrency-control write set.  Flat like
        :meth:`write`; the row is then read as :meth:`read` reads it.
        """
        if self._crashed:
            self._ensure_not_crashed()
        if txn.status is not _ACTIVE:
            txn.ensure_active()
        ssi = self._ssi
        if ssi is not None and ssi.is_doomed(txn):
            self._check_doomed(txn)
        table = self._table_map.get(table_name)
        if table is None:
            self.catalog.table(table_name)  # raises SchemaError
        row_id: RowId = (table_name, key)
        with self._commit_mutex:
            blockers = self.locks.try_acquire(txn.txid, row_id, _EXCLUSIVE)
            if blockers:
                return self._blocked(blockers)
        # Holding the exclusive lock pins the chain tip and the SFU mark:
        # any competing writer must first get this lock, and a committer
        # publishes before releasing it.
        if not self._s2pl:
            self._check_write_conflict(txn, table, key, row_id)
        txn.sfu_rows = {*txn.sfu_rows, row_id}
        if self.config.sfu is SfuSemantics.CC_WRITE:
            txn.cc_writes = {*txn.cc_writes, row_id}
        if self._s2pl:
            return self._read_latest(txn, table, row_id)
        return self.read(txn, table_name, key)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(
        self,
        txn: Transaction,
        table_name: str,
        key: Hashable,
        value: Optional[Row],
    ) -> "None | WaitOn":
        """Stage a full-row write (``value=None`` deletes).

        Returns ``WaitOn`` when blocked behind another writer; raises
        :class:`SerializationFailure` on a first-updater-wins conflict.
        The value becomes visible to other transactions only at commit.
        """
        if self._crashed:
            self._ensure_not_crashed()
        if txn.status is not _ACTIVE:
            txn.ensure_active()
        ssi = self._ssi
        if ssi is not None and ssi.is_doomed(txn):
            self._check_doomed(txn)
        table = self._table_map.get(table_name)
        if table is None:
            self.catalog.table(table_name)  # raises SchemaError
        if value is not None:
            # The checked copy, frozen: what the caller holds never changes it.
            value = FrozenRow(table.schema.validate_row(value))
        return self._stage(txn, table, (table_name, key), value)

    def update(
        self, txn: Transaction, table_name: str, key: Hashable, changes: Changes
    ) -> "bool | WaitOn":
        """``UPDATE table SET ... WHERE pk = key`` in one call.

        Reads the row as :meth:`read` does (under S2PL, shared lock
        first), applies ``changes`` to one copy, type-checking only the
        changed columns, and stages it as :meth:`write` does.  Returns
        False when no row is visible, True once staged; on ``WaitOn`` the
        caller waits and calls again, which reads the row again.
        """
        current = self.read(txn, table_name, key)
        if current is None:
            return False
        if current.__class__ is WaitOn:
            return current
        ssi = self._ssi
        if ssi is not None and ssi.is_doomed(txn):
            self._check_doomed(txn)
        table = self._table_map[table_name]  # read() found it
        new = changes(current) if callable(changes) else changes
        types = table.schema._types
        for name, value in new.items():
            if name not in types:
                raise SchemaError(
                    f"unknown column(s) {sorted(new.keys() - types.keys())} "
                    f"for table {table_name!r}"
                )
            kinds, column = types[name]
            # Column.check's accepting case inline; it words the rejections.
            if not isinstance(value, kinds) or value is True or value is False:
                column.check(value)
        row = FrozenRow(current)  # one copy, in C
        _dict_update(row, new)  # dict's own update: FrozenRow's refuses
        return self._stage(txn, table, (table_name, key), row) or True

    def _stage(
        self, txn: Transaction, table: Table, row_id: RowId, value: Optional[Row]
    ) -> "None | WaitOn":
        """Stage ``value`` as the row's uncommitted version: one hold of the
        commit mutex covers the lock, the first-updater-wins check and the
        staging.  The second half of :meth:`write` and :meth:`update`."""
        key = row_id[1]
        if value is not None and value[table.schema.primary_key] != key:
            raise IntegrityError(
                f"row primary key {value[table.schema.primary_key]!r} "
                f"does not match write target {key!r}"
            )
        txid = txn.txid
        rows = table.rows
        ssi = self._ssi
        with self._commit_mutex:
            row_locks = self._row_locks
            if row_id not in row_locks:  # nobody holds it: grant it here
                row_locks[row_id] = {txid: _EXCLUSIVE}
                held = self._locks_held.get(txid)
                if held is None:
                    self._locks_held[txid] = {row_id}
                else:
                    held.add(row_id)
            else:
                blockers = self.locks.try_acquire(txid, row_id, _EXCLUSIVE)
                if blockers:
                    return self._blocked(blockers)
            chain = rows.get(key)
            if self._first_updater_wins:
                # Inlined, the helper is called only to raise.  A row with
                # no chain has only its bootstrap version, at 0.
                tip = (
                    chain.versions[-1].commit_ts
                    if chain is not None and chain.versions
                    else 0
                )
                if max(tip, table.cc_write_ts.get(key, 0)) > txn.snapshot_ts:
                    self._check_write_conflict(txn, table, key, row_id)
            if chain is None:
                rows[key] = VersionChain(table.base.get(key), (txid, value))
            else:
                chain.uncommitted = (txid, value)
            if ssi is not None:
                ssi.on_write(txn, row_id)
        writes = txn.writes
        if row_id not in writes:
            txn.write_order.append(row_id)
        writes[row_id] = value
        if self._obs is not None:
            self._obs.engine_write(txn, row_id)
        if ssi is not None and ssi.is_doomed(txn):
            self._check_doomed(txn)
        return None

    def insert(
        self, txn: Transaction, table_name: str, value: Row
    ) -> "None | WaitOn":
        """Insert a new row; duplicate (visible) keys raise IntegrityError."""
        self._ensure_not_crashed()
        txn.ensure_active()
        table = self.catalog.table(table_name)
        value = table.schema.validate_row(value)
        key = value[table.schema.primary_key]
        row_id: RowId = (table_name, key)
        if row_id in txn.writes:
            existing = txn.writes[row_id]
        else:
            existing = table.visible_row(key, self._read_horizon(txn))
        if existing is not None:
            raise IntegrityError(
                f"duplicate primary key {key!r} in {table_name!r}"
            )
        return self.write(txn, table_name, key, value)

    def delete(
        self, txn: Transaction, table_name: str, key: Hashable
    ) -> "None | WaitOn":
        return self.write(txn, table_name, key, None)

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------
    def commit(self, txn: Transaction) -> None:
        """Commit ``txn``: validate, publish versions, release locks.

        Raises :class:`SerializationFailure` (after aborting the
        transaction) when first-committer-wins validation or the SSI
        certifier rejects it.

        One hold of the commit mutex validates, timestamps, publishes the
        versions, appends and flushes the WAL record and frees the locks,
        so ``commit`` returns with the record durable.  The uncontended
        path calls no helper per row: the version goes onto its chain and
        the row lock comes off in this frame.
        """
        obs = self._obs
        commit_started = obs.now() if obs is not None else 0.0
        with self._commit_mutex:
            if self._crashed:
                self._ensure_not_crashed()
            if txn.status is not _ACTIVE:
                txn.ensure_active()
            faults = self.faults
            if faults is not None and faults.should_fire("abort-at-commit"):
                self._abort_locked(txn, reason="fault")
                self._fire(txn.drain_callbacks(), txn)
                raise FaultInjected(
                    f"txn {txn.txid} ({txn.label}) aborted at commit by fault plan"
                )
            ssi = self._ssi
            if ssi is not None and ssi.is_doomed(txn):
                self._abort_locked(txn, reason="ssi")
                self._fire(txn.drain_callbacks(), txn)
                raise SsiAbort(
                    f"txn {txn.txid} ({txn.label}) is an SSI pivot"
                )
            if self._first_committer_wins:
                conflict = self._first_committer_conflict(txn)
                if conflict is not None:
                    self._abort_locked(txn, reason="serialization")
                    self._fire(txn.drain_callbacks(), txn)
                    raise SerializationFailure(conflict)
            txid = txn.txid
            writes = txn.writes
            if not (writes or txn.cc_writes):  # nothing to publish: tick once
                txn.commit_ts = self.last_ts = self.last_ts + 1
            else:
                # Reserve the commit timestamp without ticking the clock yet:
                # every live snapshot has snapshot_ts <= last_ts < commit_ts,
                # so the versions published below stay invisible until the tick.
                commit_ts = self.last_ts + 1
                tables = self._table_map
                # Validate every unique constraint BEFORE publishing anything:
                # a violation must leave no versions behind (and consume no
                # timestamp).  ``staged`` lets validation see the transaction's
                # own writes to other rows of a table that has unique columns.
                staged_by_table: dict[str, dict[Hashable, Optional[Row]]] = {}
                for row_id in txn.write_order:
                    tn, key = row_id
                    if tables[tn].schema.unique:
                        if tn not in staged_by_table:
                            staged_by_table[tn] = {
                                k: v for (t, k), v in writes.items() if t == tn
                            }
                        tables[tn].check_unique_on_commit(
                            key, writes[row_id], commit_ts, staged_by_table[tn]
                        )
                txn.commit_ts = commit_ts
                redo = []
                for row_id in txn.write_order:
                    tn, key = row_id
                    table = tables[tn]
                    value = writes[row_id]
                    version = _built(Version, (commit_ts, txid, value))
                    chain = table.rows[key]  # write() created it
                    versions = chain.versions
                    if versions and versions[-1].commit_ts > commit_ts:
                        chain.append_committed(version)  # raises
                    versions.append(version)
                    uncommitted = chain.uncommitted
                    if uncommitted is not None and uncommitted[0] == txid:
                        chain.uncommitted = None
                    if table.schema.unique:
                        table.index_committed_version(key, version)
                    redo.append((tn, key, value))
                for tn, key in txn.cc_writes:
                    tables[tn].cc_write_ts[key] = commit_ts
                self.last_ts = commit_ts  # the tick that makes it all visible
                if writes:
                    record = _built(
                        WalRecord, (commit_ts, txid, txn.label, tuple(redo), "commit", None)
                    )
                    if faults is not None and faults.should_fire("crash-mid-commit"):
                        # Power fails after the append but before the flush:
                        # the commit is NOT durable and must vanish on
                        # recovery, even though versions were already
                        # published in (now lost) memory.  _crash_locked
                        # truncates the volatile tail, this record with it.
                        if obs is not None:
                            obs.engine_wal_stage(txn, record)
                        self.wal.append(record)
                        self._crash_locked()
                        raise DatabaseCrashed(
                            f"crash injected during commit of txn {txn.txid} "
                            f"({txn.label}): WAL record appended but not flushed"
                        )
                    if obs is None:
                        self.wal.append(record, durable=True)
                    else:
                        self._log_observed(obs, txn, record)
            txn.status = TxnStatus.COMMITTED
            self._active.pop(txid, None)
            # ``self.locks.release_all(txid)``, in this frame.  A committing
            # transaction waits for nobody (every wait ends before its verb
            # returns), so it has no waits-for edge to drop.
            held = self._locks_held.pop(txid, None)
            if held is not None:  # an SI reader holds none
                row_locks = self._row_locks
                for row_id in held:
                    holders = row_locks[row_id]
                    del holders[txid]
                    if not holders:
                        del row_locks[row_id]
            if ssi is not None:
                ssi.on_resolve(txn, self._active.values())
            # ``txn.drain_callbacks()``, in this frame.
            callbacks = txn._resolution_callbacks
            if callbacks:
                txn._resolution_callbacks = ()
        try:
            if obs is not None:
                obs.engine_commit(txn, obs.now() - commit_started)
        finally:
            if callbacks or self._observers:
                self._fire(callbacks, txn)

    def abort(self, txn: Transaction, *, reason: str = "user") -> None:
        """Abort ``txn``: drop uncommitted versions, release locks.

        ``reason`` is the trace/metrics tag; the engine's internal abort
        sites pass their own ("serialization", "deadlock", "ssi", "fault",
        ...), the session layer passes "lock-timeout" for expired waits,
        and driver-initiated rollbacks keep the default "user".
        """
        with self._commit_mutex:
            if txn.status is not TxnStatus.ACTIVE:
                return
            self._abort_locked(txn, reason=reason)
            callbacks = txn.drain_callbacks()
        self._fire(callbacks, txn)

    def restart(self, txn: Transaction, *, reason: str = "restart") -> Transaction:
        """Abort ``txn`` and reopen it at the *same* snapshot and label.

        For a caller that must undo an attempt and run it again (the
        server's inline ``CALL``, DESIGN.md §11.5): the successor enters
        ``_active`` before the attempt leaves it, under one hold of the
        commit mutex, so vacuum's horizon never passes the snapshot and
        the re-run reads exactly what the attempt read.
        """
        with self._commit_mutex:
            self._ensure_not_crashed()
            txn.ensure_active()
            successor = self._begin_locked(txn.start_ts, txn.label)
            successor.clocked = txn.clocked
            self._abort_locked(txn, reason=reason)
            callbacks = txn.drain_callbacks()
        self._fire(callbacks, txn)
        return successor

    def _unstage(self, txn: Transaction) -> None:
        # ``txn`` still holds these rows' locks, so nobody else stages on
        # them; the clear is an atomic store lock-free readers may race.
        for table_name, key in txn.write_order:
            chain = self._table_map[table_name].rows.get(key)
            if (
                chain is not None
                and chain.uncommitted is not None
                and chain.uncommitted[0] == txn.txid
            ):
                chain.uncommitted = None

    def _abort_locked(self, txn: Transaction, *, reason: str = "user") -> None:
        self._unstage(txn)
        txn.status = TxnStatus.ABORTED
        self._active.pop(txn.txid, None)
        self.locks.release_all(txn.txid)
        if self._ssi is not None:
            self._ssi.on_resolve(txn, self._active.values())
        if reason != "user":
            counts = self.aborts_by_reason
            counts[reason] = counts.get(reason, 0) + 1
        if self._obs is not None:
            self._obs.engine_abort(txn, reason)

    # ------------------------------------------------------------------
    # Two-phase commit (participant side, presumed abort — DESIGN.md §12)
    # ------------------------------------------------------------------
    def prepare_commit(self, txn: Transaction, gtid: str) -> int:
        """Phase one: validate ``txn`` and durably log its YES vote; returns
        the prepare timestamp (a tick of the clock; 0 unless ``clocked``).

        Runs the *validation* half of :meth:`commit` (SSI doom,
        first-committer-wins, unique constraints) and, if it passes,
        moves the transaction to ``PREPARED``: its write set is appended
        to the WAL as a ``prepare`` record under ``gtid`` and flushed
        before this method returns — the durability point of the vote.
        Nothing is published: the transaction keeps all its row locks and
        stays invisible (and in ``_active``, pinning the vacuum horizon)
        until the coordinator delivers a decision via
        :meth:`commit_prepared` / :meth:`abort_prepared`.

        Validation failures abort the transaction and raise exactly as
        :meth:`commit` would — that *is* the NO vote.  A crash after the
        flush leaves the prepare on the durable log with no decision;
        recovery stashes it as in-doubt and presumed abort means the
        coordinator (who never got our YES, or aborted globally) need do
        nothing for it to stay dead.

        Unique-constraint validation runs at prepare time against the
        then-current committed state; the held exclusive locks freeze the
        transaction's *own* rows until the decision, but an unrelated
        insert may commit a conflicting unique value in the prepare→decide
        window.  The SmallBank workloads never insert during a run, so the
        window is acceptable for this reproduction (and documented).
        """
        with self._commit_mutex:
            if self._crashed:
                self._ensure_not_crashed()
            if txn.status is not _ACTIVE:
                txn.ensure_active()
            if (
                gtid in self._prepared
                or gtid in self._in_doubt
                or gtid in self._resolved_gtids
            ):
                raise TransactionStateError(
                    f"global transaction id {gtid!r} is already in use"
                )
            if self._ssi is not None and self._ssi.is_doomed(txn):
                self._abort_locked(txn, reason="ssi")
                self._fire(txn.drain_callbacks(), txn)
                raise SsiAbort(
                    f"txn {txn.txid} ({txn.label}) is an SSI pivot"
                )
            if self._first_committer_wins:
                conflict = self._first_committer_conflict(txn)
                if conflict is not None:
                    self._abort_locked(txn, reason="serialization")
                    self._fire(txn.drain_callbacks(), txn)
                    raise SerializationFailure(conflict)
            writes = txn.writes
            tables = self._table_map
            prepare_ts = self.last_ts + 1
            staged_by_table: dict[str, dict[Hashable, Optional[Row]]] = {}
            for row_id in txn.write_order:
                tn, key = row_id
                if tables[tn].schema.unique:
                    if tn not in staged_by_table:
                        staged_by_table[tn] = {
                            k: v for (t, k), v in writes.items() if t == tn
                        }
                    tables[tn].check_unique_on_commit(
                        key, writes[row_id], prepare_ts, staged_by_table[tn]
                    )
            if txn.clocked:
                txn.prepare_ts = self.last_ts = prepare_ts
            record = WalRecord(
                commit_ts=txn.prepare_ts,  # 0 unless clocked
                txid=txn.txid,
                label=txn.label,
                redo=tuple([(tn, key, writes[tn, key]) for tn, key in txn.write_order]),
                kind="prepare",
                gtid=gtid,
            )
            txn.status = TxnStatus.PREPARED
            txn.gtid = gtid
            self._prepared[gtid] = txn
            # Deliberately NOT drained: resolution callbacks (lock waiters)
            # stay queued — the locks are still held.  The txn also stays
            # in _active so vacuum and the SSI certifier keep seeing it.
            if self._obs is not None:
                self._obs.engine_wal_stage(txn, record)
            # Durability point of the YES vote: the prepare record must be
            # on stable storage before the coordinator may count the vote.
            self.wal.append(record, durable=True)
            return txn.prepare_ts

    def commit_prepared(self, gtid: str, commit_ts: Optional[int] = None) -> int:
        """Phase two, commit decision: publish ``gtid`` at ``commit_ts``
        (the coordinator's; none: a fresh tick of the clock).

        Two paths: a *live* prepared transaction (normal operation)
        publishes its staged versions exactly like :meth:`commit`; an
        *in-doubt* prepare record (re-delivered decision after a crash —
        the participant recovery hook) replays the record's redo payload.
        Either way a small ``commit-2pc`` decision record (no redo) is
        made durable and the gtid is remembered so re-delivery is
        idempotent.  Returns the commit timestamp.
        """
        callbacks: list[Callable[[Transaction], None]] = []
        txn: Optional[Transaction] = None
        obs = self._obs
        commit_started = obs.now() if obs is not None else 0.0
        with self._commit_mutex:
            if self._crashed:
                self._ensure_not_crashed()
            decided = self._resolved_gtids.get(gtid)
            if decided is not None:
                outcome, decided_ts = decided
                if outcome == "committed":
                    return decided_ts
                raise TransactionStateError(
                    f"global transaction {gtid!r} was already aborted"
                )
            txn = self._prepared.get(gtid)
            stash = self._in_doubt.get(gtid) if txn is None else None
            if txn is None and stash is None:
                raise TransactionStateError(
                    f"no prepared transaction for gtid {gtid!r}"
                )
            # A stash's record carries its prepare timestamp; an unclocked
            # prepare has none and commits at a fresh tick, whatever it is sent.
            prepare_ts = stash.commit_ts if txn is None else txn.prepare_ts
            if commit_ts is None or not prepare_ts:
                commit_ts = self.last_ts + 1
            elif commit_ts < prepare_ts:
                raise TransactionStateError(f"{gtid!r} commits below its prepare")
            if txn is not None:
                txn.commit_ts = commit_ts
                txid = txn.txid
                writes = txn.writes
                tables = self._table_map
                for row_id in txn.write_order:
                    tn, key = row_id
                    table = tables[tn]
                    version = Version(commit_ts, txid, writes[row_id])
                    chain = table.rows[key]  # write() created it
                    chain.append_committed(version)
                    uncommitted = chain.uncommitted
                    if uncommitted is not None and uncommitted[0] == txid:
                        chain.uncommitted = None
                    if table.schema.unique:
                        table.index_committed_version(key, version)
                for tn, key in txn.cc_writes:
                    tables[tn].cc_write_ts[key] = commit_ts
                # Published: a lookup that finds no prepared writer now
                # finds the versions (``_prepared_with_value``).
                del self._prepared[gtid]
                record = WalRecord(
                    commit_ts=commit_ts,
                    txid=txid,
                    label=txn.label,
                    kind="commit-2pc",
                    gtid=gtid,
                )
            else:
                # Recovery hook: the prepare survived a crash; apply its
                # redo payload on this (recovered) instance — the effect
                # the live publish would have had — then let its rows go.
                del self._in_doubt[gtid]
                self._apply_redo(stash.redo, commit_ts, stash.txid)
                self._release_in_doubt(gtid)
                record = WalRecord(
                    commit_ts=commit_ts,
                    txid=stash.txid,
                    label=stash.label,
                    kind="commit-2pc",
                    gtid=gtid,
                )
            if commit_ts > self.last_ts:
                self.last_ts = commit_ts  # the tick that makes it visible
            # Durability point of the decision.  Presumed abort makes this
            # record tiny — no redo, just (gtid, commit_ts).
            if obs is not None and txn is not None:
                self._log_observed(obs, txn, record)
            else:
                self.wal.append(record, durable=True)
            self._resolved_gtids[gtid] = ("committed", commit_ts)
            if txn is not None:
                txn.status = TxnStatus.COMMITTED
                self._active.pop(txid, None)
                self.locks.release_all(txid)
                if self._ssi is not None:
                    self._ssi.on_resolve(txn, self._active.values())
                callbacks = txn.drain_callbacks()
        if txn is not None:
            try:
                if obs is not None:
                    obs.engine_commit(txn, obs.now() - commit_started)
            finally:
                self._fire(callbacks, txn)
        return commit_ts

    def abort_prepared(self, gtid: str) -> None:
        """Phase two, abort decision (or presumed-abort re-delivery).

        Rolls back a live prepared transaction, or discards an in-doubt
        stash entry after recovery.  *No WAL record is written* — under
        presumed abort, a prepare with no decision on the log already
        reads as aborted, so the abort decision needs no durable trace.
        Idempotent for already-aborted gtids — including gtids this
        participant never prepared at all: an unknown gtid's prepare may
        have died with a crashed connection before the vote, and the
        coordinator's abort broadcast must still land as a harmless no-op
        (the presumed-abort contract).  Only contradicting a recorded
        commit is an error.
        """
        callbacks: list[Callable[[Transaction], None]] = []
        txn: Optional[Transaction] = None
        with self._commit_mutex:
            self._ensure_not_crashed()
            decided = self._resolved_gtids.get(gtid)
            if decided is not None:
                if decided[0] == "aborted":
                    return
                raise TransactionStateError(
                    f"global transaction {gtid!r} was already committed"
                )
            txn = self._prepared.pop(gtid, None)
            if txn is None:
                if self._in_doubt.pop(gtid, None) is not None:
                    self._release_in_doubt(gtid)
            else:
                self._abort_locked(txn, reason="2pc-abort")
                callbacks = txn.drain_callbacks()
            self._resolved_gtids[gtid] = ("aborted", 0)
        if txn is not None:
            self._fire(callbacks, txn)

    def hold_in_doubt(self, gtid: str, record: WalRecord) -> None:
        """Recovery hook: stash an undecided prepare, rows locked again.

        A prepared transaction keeps its row locks until its decision; a
        crash must not free them, or a writer could slip between the
        recovery and the re-delivered commit (which replays the record's
        after-images over whatever that writer did — a lost update).
        The locks belong to a placeholder transaction that holds nothing
        else: PREPARED, so no session abort path touches it, and in
        ``_active`` so waiters find it and the vacuum horizon holds.
        """
        with self._commit_mutex:
            self._txid_counter += 1
            holder = Transaction(
                self._txid_counter, self.last_ts, self._commit_mutex,
                label=record.label,
            )
            holder.status = TxnStatus.PREPARED
            holder.gtid = gtid
            holder.clocked = record.commit_ts > 0  # it logged a prepare_ts
            holder.prepare_ts = record.commit_ts
            for table_name, key, value in record.redo:
                self.locks.try_acquire(holder.txid, (table_name, key), _EXCLUSIVE)
                # Staged again, so a read may wait for it (_prepared_writer).
                chain = self.catalog.table(table_name).chain_or_create(key)
                chain.uncommitted = (holder.txid, value)
                holder.write_order.append((table_name, key))
            self._active[holder.txid] = holder
            self._in_doubt[gtid] = record
            self._in_doubt_holders[gtid] = holder

    def _apply_redo(self, redo: Iterable, commit_ts: int, txid: int) -> None:
        """Publish a record's ``(table, key, after_image)`` triples as
        versions at ``commit_ts`` (recovery and in-doubt replay)."""
        for table_name, key, value in redo:
            table = self.catalog.table(table_name)
            version = Version(commit_ts, txid, freeze_row(value))
            table.chain_or_create(key).append_committed(version)
            table.index_committed_version(key, version)

    def _release_in_doubt(self, gtid: str) -> None:
        """A decided in-doubt prepare lets go of its rows (commit mutex
        held): unstage them, drop the placeholder's locks and wake whoever
        waited on them, as :meth:`_crash_locked` wakes waiters — no observer
        hears of the placeholder, it never was a transaction of anyone's."""
        holder = self._in_doubt_holders.pop(gtid)
        self._unstage(holder)
        holder.status = TxnStatus.ABORTED
        self._active.pop(holder.txid, None)
        self.locks.release_all(holder.txid)
        for callback in holder.drain_callbacks():
            callback(holder)

    @property
    def recovered_in_doubt(self) -> tuple[str, ...]:
        """Gtids of prepare records recovered with no decision, sorted.

        The coordinator's recovery pass resolves these by re-delivering
        its logged decision (:meth:`commit_prepared`) or relying on
        presumed abort (:meth:`abort_prepared` / doing nothing).
        """
        with self._commit_mutex:
            return tuple(sorted(self._in_doubt))

    @property
    def prepared_gtids(self) -> tuple[str, ...]:
        """Gtids of live prepared transactions, sorted (for stats/tests)."""
        with self._commit_mutex:
            return tuple(sorted(self._prepared))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def vacuum(self) -> int:
        """Prune version-chain history no live snapshot can still see.

        Keeps, for every chain, the newest version at or below the oldest
        active snapshot (that version is exactly what such a snapshot
        reads) plus everything newer; returns the number of versions
        dropped.  Runs under the commit mutex, so no snapshot older than
        the horizon can appear mid-prune and no commit can publish
        concurrently; in-flight lock-free readers are safe because pruning
        *replaces* each chain's version list rather than mutating it.
        """
        with self._commit_mutex:
            self._ensure_not_crashed()
            if self._active:
                horizon = min(t.snapshot_ts for t in self._active.values())
            else:
                horizon = self.last_ts
            self._horizon = horizon
            pruned = 0
            for table in self.catalog:  # a row nobody wrote has one version
                for chain in list(table.rows.values()):
                    pruned += chain.prune(horizon)
            if self._obs is not None:
                self._obs.engine_vacuum(pruned)
            return pruned

    # ------------------------------------------------------------------
    # Waiting support (used by sessions)
    # ------------------------------------------------------------------
    def begin_wait(self, txn: Transaction, wait: WaitOn) -> None:
        """Register a wait; raises DeadlockError if it would close a cycle.

        On a deadlock the transaction is aborted before the error
        propagates, matching server behaviour.
        """
        with self._commit_mutex:
            try:
                self.locks.begin_wait(txn.txid, wait.blocker_ids)
            except Exception as exc:
                self._abort_locked(
                    txn, reason=getattr(exc, "reason", "deadlock")
                )
                self._fire(txn.drain_callbacks(), txn)
                raise

    def end_wait(self, txn: Transaction) -> None:
        with self._commit_mutex:
            self.locks.end_wait(txn.txid)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _read_horizon(self, txn: Transaction) -> int:
        """Timestamp bound for reads: snapshot under SI, 'now' under S2PL."""
        if self._s2pl:
            return self.last_ts + 1
        return txn.snapshot_ts

    def _prepared_writer(
        self, chain: Optional[VersionChain], snapshot_ts: int
    ) -> Optional[Transaction]:
        """The PREPARED cluster branch staged on ``chain`` whose commit may
        land at or below ``snapshot_ts``, or ``None``.  Call it before
        reading the versions: a decision publishes, then unstages."""
        staged = None if chain is None else chain.uncommitted
        owner = None if staged is None else self._active.get(staged[0])
        if owner is None or not owner.clocked or owner.status is not _PREPARED:
            return None
        return owner if owner.prepare_ts <= snapshot_ts else None

    def _prepared_with_value(
        self, table: Table, column: str, value: Hashable, snapshot_ts: int
    ) -> Optional[Transaction]:
        """:meth:`_prepared_writer` for a lookup: the unique index holds
        committed values only, so ask the few prepared branches for a
        staged ``table`` row whose ``column`` is ``value``.  A decision
        leaves ``_prepared`` once published: when none is found, the index
        is whole."""
        name = table.schema.name
        primary = column == table.schema.primary_key
        with self._commit_mutex:
            for owner in (*self._prepared.values(), *self._in_doubt_holders.values()):
                if not owner.clocked or owner.prepare_ts > snapshot_ts:
                    continue
                for tn, key in owner.write_order:
                    staged = table.rows[key].uncommitted if tn == name else None
                    if staged is None or staged[0] != owner.txid or staged[1] is None:
                        continue
                    if (key if primary else staged[1].get(column)) == value:
                        return owner
        return None

    def _read_latest(
        self, txn: Transaction, table: Table, row_id: RowId
    ) -> Optional[Row]:
        """S2PL read: newest committed version (locks exclude writers)."""
        table_name, key = row_id
        if row_id in txn.writes:
            txn.record_read(row_id, OWN_WRITE)
            return txn.writes[row_id]
        chain = table.rows.get(key)
        version = table.base.get(key) if chain is None else chain.latest()
        version_ts = 0 if version is None else version.commit_ts
        txn.record_read(row_id, version_ts)
        if self._obs is not None:
            self._obs.engine_read(txn, row_id, version_ts)
        if version is None or version.is_tombstone:
            return None
        return version.value

    def _record_read(
        self, txn: Transaction, row_id: RowId, version_ts: int
    ) -> None:
        txn.record_read(row_id, version_ts)
        if self._ssi is not None:
            with self._commit_mutex:
                self._ssi.on_read(txn, row_id, self)
        if self._obs is not None:
            self._obs.engine_read(txn, row_id, version_ts)

    def _record_item_read(
        self, txn: Transaction, table: Table, row_id: RowId
    ) -> None:
        if row_id in txn.writes:
            txn.record_read(row_id, OWN_WRITE)
            return
        version = table.visible(row_id[1], self._read_horizon(txn))
        self._record_read(txn, row_id, version.commit_ts if version else 0)

    def _check_write_conflict(
        self, txn: Transaction, table: Table, key: Hashable, row_id: RowId
    ) -> None:
        """First-updater-wins snapshot check (also used for SFU).

        Called with the exclusive lock already granted, so the newest
        committed version is stable: a competing writer would need this
        lock first, and a committer publishes its version (and SFU mark)
        before releasing it.  A version newer than our snapshot means a
        concurrent transaction already won.  A row with no chain has only
        its bootstrap version, at 0.
        """
        chain = table.rows.get(key)
        committed = chain.versions if chain is not None else ()
        newest = committed[-1].commit_ts if committed else 0
        if newest > txn.snapshot_ts:
            self._fail_serialization(
                txn,
                f"txn {txn.txid} ({txn.label}): row {row_id!r} was updated "
                f"by a concurrent transaction (committed at {newest}, "
                f"snapshot at {txn.snapshot_ts})",
            )
        cc_ts = table.cc_write_ts.get(key, 0)
        if cc_ts > txn.snapshot_ts:
            self._fail_serialization(
                txn,
                f"txn {txn.txid} ({txn.label}): row {row_id!r} was "
                f"SELECT-FOR-UPDATE locked by a concurrent transaction "
                f"(committed at {cc_ts}, snapshot at {txn.snapshot_ts})",
            )

    def _log_observed(
        self, obs: "Observability", txn: Transaction, record: WalRecord
    ) -> None:
        """Append and flush ``record`` (commit mutex held), telling ``obs``:
        the stage, then a flush of a batch of one."""
        obs.engine_wal_stage(txn, record)
        started = obs.now()
        self.wal.append(record, durable=True)
        obs.engine_wal_flush(txn, 1, obs.now() - started)

    def _fail_serialization(self, txn: Transaction, message: str) -> None:
        with self._commit_mutex:
            if txn.status is TxnStatus.ACTIVE:
                self._abort_locked(txn, reason="serialization")
                self._fire(txn.drain_callbacks(), txn)
        raise SerializationFailure(message)

    def _first_committer_conflict(self, txn: Transaction) -> Optional[str]:
        for row_id in txn.write_order:
            table_name, key = row_id
            table = self.catalog.table(table_name)
            chain = table.rows[key]  # write() created it
            newest = chain.latest_commit_ts()
            if newest > txn.snapshot_ts:
                return (
                    f"txn {txn.txid} ({txn.label}): first-committer-wins "
                    f"validation failed on {row_id!r}"
                )
            if table.cc_write_ts.get(key, 0) > txn.snapshot_ts:
                return (
                    f"txn {txn.txid} ({txn.label}): first-committer-wins "
                    f"validation failed on SFU-marked {row_id!r}"
                )
        return None

    def _check_doomed(self, txn: Transaction) -> None:
        """Abort+raise if the SSI certifier doomed this transaction.

        The doom check itself is a lock-free set probe; the abort (the
        rare path) takes the commit mutex and re-checks the status so two
        racing operations of the same transaction abort it only once.
        """
        if self._ssi is None or not self._ssi.is_doomed(txn):
            return
        with self._commit_mutex:
            if txn.status is TxnStatus.ACTIVE:
                self._abort_locked(txn, reason="ssi")
                self._fire(txn.drain_callbacks(), txn)
        raise SsiAbort(f"txn {txn.txid} ({txn.label}) is an SSI pivot")

    def _blocked(self, blocker_ids: Iterable[int]) -> WaitOn:
        """The wait for a failed acquire, built in its hold of the commit
        mutex: a lock holder leaves ``_active`` only in the hold that
        releases its locks, or in a crash, which this raises for."""
        if self._crashed:
            self._ensure_not_crashed()
        active = self._active
        return WaitOn(frozenset([active[txid] for txid in blocker_ids]))

    def _fire(
        self, callbacks: Iterable[Callable[[Transaction], None]], txn: Transaction
    ) -> None:
        for observer in self._observers:
            observer(txn)
        for callback in callbacks:
            callback(txn)
