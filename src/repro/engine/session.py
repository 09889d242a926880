"""Statement-level sessions over the non-blocking engine core.

A :class:`Session` wraps one transaction and exposes the operations that
the SmallBank programs (and the mini SQL executor) are written against:

``select`` / ``select_for_update`` / ``lookup_unique`` / ``scan`` /
``update`` / ``identity_update`` / ``insert`` / ``delete`` / ``commit`` /
``rollback``.

Each verb is one engine call — ``update`` too, which reads, merges and
stages in :meth:`~repro.engine.engine.Database.update`.  When the engine
returns :class:`~repro.engine.engine.WaitOn`, the session registers the
wait (deadlock detection happens there), delegates the actual waiting to
its :class:`Waiter` policy and calls the engine again:

* :class:`ThreadedWaiter` — block the calling OS thread until any blocker
  resolves (used by the threaded correctness/stress driver);
* the simulator provides its own waiter that suspends the simulated client
  (:mod:`repro.sim.client`);
* :class:`NoWaitWaiter` — raise :class:`WouldBlock` instead of waiting
  (used by tests and the interleaving explorer to observe blocking).

Two optional hooks make the session instrumentable without subclassing:

* ``statement_hook(kind, txn)`` fires once per logical SQL statement (the
  simulator charges CPU time there); ``kind`` distinguishes ordinary
  statements from the strategy-introduced ones (``"materialize-update"``,
  ``"identity-update"``, ``"select-for-update"``) because the platforms
  price them differently.  ``kind=None`` marks a verb of a statement
  already charged (a unique-column ``SELECT ... FOR UPDATE``'s row lock);
  a scan ``FOR UPDATE`` is charged for the scan and for each row it locks;
* ``pre_commit_hook(txn)`` fires before a commit that requires a WAL flush
  (the simulator waits on the group-commit log disk there).
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, Optional

from repro.engine.engine import Changes, Database, Row, WaitOn
from repro.engine.transaction import Transaction, TxnStatus
from repro.errors import EngineError, LockTimeout, TransactionStateError


class WouldBlock(EngineError):
    """Raised by :class:`NoWaitWaiter` when an operation would block."""

    def __init__(self, wait: WaitOn) -> None:
        super().__init__(f"operation would block on {sorted(wait.blocker_ids)}")
        self.wait = wait


class Waiter:
    """Strategy for waiting until any of a set of transactions resolves.

    Contract (uniform across every implementation): ``wait_any`` blocks
    until any blocker resolves or the optional ``timeout`` (seconds)
    expires, and returns a ``bool`` — ``True`` when the wake-up happened
    (a blocker resolved), ``False`` when the timeout expired first.
    Implementations that never time out return ``True`` unconditionally;
    implementations that never wait (:class:`NoWaitWaiter`) raise instead
    of returning.
    """

    def wait_any(self, wait: WaitOn, timeout: Optional[float] = None) -> bool:
        raise NotImplementedError


class ThreadedWaiter(Waiter):
    """Block the calling OS thread on a :class:`threading.Event`."""

    def wait_any(self, wait: WaitOn, timeout: Optional[float] = None) -> bool:
        event = threading.Event()
        for blocker in wait.blockers:
            blocker.add_resolution_callback(lambda _txn: event.set())
        return event.wait(timeout)


#: The waiter of every session built without one: it holds no state.
_THREADED_WAITER = ThreadedWaiter()


class NoWaitWaiter(Waiter):
    """Never wait; surface the block to the caller as :class:`WouldBlock`."""

    def wait_any(self, wait: WaitOn, timeout: Optional[float] = None) -> bool:
        raise WouldBlock(wait)


class Session:
    """One client connection executing a single transaction at a time.

    Applications reach sessions through :func:`repro.api.connect`, whose
    connections hand them out with identical semantics against the
    in-process and the network backends.  Each verb resolves its
    transaction, then fires ``statement_hook``, then calls the engine;
    ``self.txn or self.transaction`` reaches the property only to raise.
    """

    def __init__(
        self,
        db: Database,
        waiter: Optional[Waiter] = None,
        statement_hook: Optional[Callable[[str, Transaction], None]] = None,
        pre_commit_hook: Optional[Callable[[Transaction], None]] = None,
    ) -> None:
        self.db = db
        self.waiter = waiter or _THREADED_WAITER
        self.statement_hook = statement_hook
        self.pre_commit_hook = pre_commit_hook
        self.txn: Optional[Transaction] = None

    # ------------------------------------------------------------------
    # Transaction control
    # ------------------------------------------------------------------
    def begin(self, label: str = "", *clock: Optional[int]) -> Transaction:
        """``clock``: a cluster branch's ``ts, snapshot_ts`` (``Database.begin``)."""
        if self.txn is not None and self.txn.status is TxnStatus.ACTIVE:
            raise TransactionStateError(
                "session already has an active transaction"
            )
        self.txn = self.db.begin(label, *clock)
        return self.txn

    @property
    def transaction(self) -> Transaction:
        if self.txn is None:
            raise TransactionStateError("no transaction; call begin() first")
        return self.txn

    @property
    def in_transaction(self) -> bool:
        """Whether a transaction is currently active (facade contract)."""
        return self.txn is not None and self.txn.is_active

    def commit(self) -> None:
        txn = self.txn or self.transaction
        if self.pre_commit_hook is not None and txn.needs_wal_flush:
            self.pre_commit_hook(txn)
        self.db.commit(txn)

    def rollback(self) -> None:
        if self.txn is not None:
            self.db.abort(self.txn)

    def close(self) -> None:
        """Release the session; rolls back an active transaction.

        Part of the facade session contract (network sessions return their
        wire connection to the pool here); on an in-process session this is
        rollback-if-active and the object stays technically usable.
        """
        if self.txn is not None and self.txn.status is TxnStatus.ACTIVE:
            self.rollback()

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def select(
        self, table: str, key: Hashable, *, kind: str = "select"
    ) -> Optional[Row]:
        """Read one row by primary key (snapshot read under SI)."""
        txn = self.txn or self.transaction
        if self.statement_hook is not None:
            self.statement_hook(kind, txn)
        while isinstance(result := self.db.read(txn, table, key), WaitOn):
            self._wait(result)
        return result

    def select_for_update(
        self, table: str, key: Hashable, *, kind: str = "select-for-update"
    ) -> Optional[Row]:
        txn = self.txn or self.transaction
        if self.statement_hook is not None and kind is not None:
            self.statement_hook(kind, txn)
        while isinstance(result := self.db.select_for_update(txn, table, key), WaitOn):
            self._wait(result)
        return result

    def lookup_unique(
        self, table: str, column: str, value: Hashable, *, kind: str = "select"
    ) -> Optional[tuple[Hashable, Row]]:
        """Index lookup by a unique column (e.g. Account.Name)."""
        txn = self.txn or self.transaction
        if self.statement_hook is not None:
            self.statement_hook(kind, txn)
        while isinstance(
            result := self.db.lookup_unique(txn, table, column, value), WaitOn
        ):
            self._wait(result)
        return result

    def scan(
        self,
        table: str,
        predicate: Optional[Callable[[Row], bool]] = None,
        description: str = "<scan>",
        *,
        kind: str = "scan",
    ) -> list[tuple[Hashable, Row]]:
        txn = self.txn or self.transaction
        if self.statement_hook is not None:
            self.statement_hook(kind, txn)
        while isinstance(
            result := self.db.scan(txn, table, predicate, description), WaitOn
        ):
            self._wait(result)
        return result

    def update(
        self, table: str, key: Hashable, changes: Changes, *, kind: str = "update"
    ) -> bool:
        """``UPDATE table SET ... WHERE pk = key``: one
        :meth:`Database.update <repro.engine.engine.Database.update>` call,
        made again after each wait.

        ``changes`` is either a column mapping or a callable computing the
        changed columns from the current row.  Returns False when the row
        does not exist in the transaction's view (0 rows updated).
        """
        txn = self.txn or self.transaction
        if self.statement_hook is not None:
            self.statement_hook(kind, txn)
        while isinstance(result := self.db.update(txn, table, key, changes), WaitOn):
            self._wait(result)
        return result

    def identity_update(
        self, table: str, key: Hashable, column: str, *, kind: str = "identity-update"
    ) -> bool:
        """The promotion idiom: ``UPDATE t SET col = col WHERE pk = key``.

        Writes the row back unchanged — the value is identical but a new
        version is created, so the access participates in write-write
        conflict detection (and forces a WAL flush at commit).
        """
        return self.update(table, key, lambda row: {column: row[column]}, kind=kind)

    def write(
        self,
        table: str,
        key: Hashable,
        row: Optional[Row],
        *,
        kind: str = "update",
    ) -> None:
        """Stage a full-row write (``row=None`` deletes) without reading.

        Exposed so the network service layer can execute a client-composed
        read-merge-write with the same engine footprint (a read, then a
        staged row) as a local :meth:`update`.
        """
        txn = self.txn or self.transaction
        if self.statement_hook is not None:
            self.statement_hook(kind, txn)
        while (wait := self.db.write(txn, table, key, row)) is not None:
            self._wait(wait)

    def insert(self, table: str, row: Row, *, kind: str = "insert") -> None:
        txn = self.txn or self.transaction
        if self.statement_hook is not None:
            self.statement_hook(kind, txn)
        while (wait := self.db.insert(txn, table, row)) is not None:
            self._wait(wait)

    def delete(self, table: str, key: Hashable, *, kind: str = "delete") -> None:
        txn = self.txn or self.transaction
        if self.statement_hook is not None:
            self.statement_hook(kind, txn)
        while (wait := self.db.delete(txn, table, key)) is not None:
            self._wait(wait)

    # ------------------------------------------------------------------
    # Waiting (every verb above retries its engine operation while it
    # answers ``WaitOn``)
    # ------------------------------------------------------------------
    def _wait(self, wait: WaitOn) -> None:
        txn = self.transaction
        faults = self.db.faults
        if faults is not None and faults.should_fire("lock-timeout"):
            # Injected expiry: the wait "times out" immediately.
            self.db.abort(txn, reason="lock-timeout")
            raise LockTimeout(
                f"txn {txn.txid} ({txn.label}): injected lock-wait timeout "
                f"on {sorted(wait.blocker_ids)}"
            )
        timeout = self.db.locks.lock_timeout
        # A waiter that never waits has no wait to time: whoever catches
        # its WouldBlock times the real one (the server's park).
        obs = None if isinstance(self.waiter, NoWaitWaiter) else self.db.obs
        started = 0.0
        timed_out = False
        if obs is not None:
            started = obs.now()
            obs.lock_wait_start(txn, wait)
        try:
            self.db.begin_wait(txn, wait)  # raises DeadlockError (txn aborted)
            try:
                if timeout is None:
                    woke = self.waiter.wait_any(wait)
                else:
                    woke = self.waiter.wait_any(wait, timeout)
            finally:
                self.db.end_wait(txn)
            timed_out = not woke
        finally:
            if obs is not None:
                obs.lock_wait_end(txn, wait, obs.now() - started, timed_out)
        if timed_out:
            self.db.abort(txn, reason="lock-timeout")
            raise LockTimeout(
                f"txn {txn.txid} ({txn.label}): lock wait exceeded "
                f"{timeout}s waiting for {sorted(wait.blocker_ids)}"
            )
