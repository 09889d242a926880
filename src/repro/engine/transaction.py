"""Transaction objects: lifecycle, footprints, resolution callbacks.

A :class:`Transaction` records everything the dynamic analysis layer needs
to rebuild a multi-version serialization graph after the fact:

* ``reads`` — for every item read, the commit timestamp of the version that
  was observed (or ``OWN_WRITE`` when the transaction saw its own write);
* ``writes`` — the staged new values (published at commit);
* ``cc_writes`` — items locked via commercial-style ``SELECT FOR UPDATE``
  (concurrency-control writes that create no version);
* ``predicate_reads`` — predicate evaluations, for phantom-aware analysis.

Waiters (sessions blocked on this transaction's row locks) subscribe via
:meth:`add_resolution_callback`, under the engine's commit mutex; the
engine fires the callbacks once the transaction commits or aborts.
"""

from __future__ import annotations

import enum
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Optional

from repro.engine.locks import RowId
from repro.errors import TransactionStateError

OWN_WRITE = -1
"""Sentinel 'version timestamp' recorded when a read observed an own write."""


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    #: Voted YES in a two-phase commit: the write set is durably logged and
    #: all locks stay held, but nothing is published — the transaction can
    #: only leave this state via the coordinator's decision
    #: (:meth:`~repro.engine.engine.Database.commit_prepared` /
    #: :meth:`~repro.engine.engine.Database.abort_prepared`).
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class PredicateRead:
    """A recorded predicate evaluation (for phantom analysis)."""

    table: str
    description: str
    matched_keys: tuple[Hashable, ...]


class Transaction:
    """State of one transaction inside a :class:`~repro.engine.engine.Database`."""

    # Rare footprints, waiters and the SSI flags: shared empty values
    # until written.
    cc_writes: "set[RowId] | frozenset[RowId]" = frozenset()
    sfu_rows: "set[RowId] | frozenset[RowId]" = frozenset()
    predicate_reads: "list[PredicateRead] | tuple[()]" = ()
    _resolution_callbacks: "list[Callable[[Transaction], None]] | tuple[()]" = ()
    in_conflict = False  # SSI: some concurrent txn has an rw edge INTO us
    out_conflict = False  # SSI: we have an rw edge OUT to a concurrent txn

    def __init__(
        self,
        txid: int,
        start_ts: int,
        latch: AbstractContextManager,
        *,
        label: str = "",
    ) -> None:
        self.txid = txid
        self.start_ts = start_ts
        #: Snapshot timestamp: this transaction sees versions committed at or
        #: before this point.  Equal to ``start_ts`` under SI.
        self.snapshot_ts = start_ts
        self.commit_ts: Optional[int] = None
        self.status = TxnStatus.ACTIVE
        #: Optional program name (e.g. "WriteCheck"), used in statistics and
        #: in the dynamic-analysis reports.
        self.label = label
        #: Global transaction id, set when this transaction becomes a 2PC
        #: participant (``Database.prepare_commit``); ``None`` otherwise.
        self.gtid: Optional[str] = None

        # Footprints -----------------------------------------------------
        self.reads: dict[RowId, int] = {}
        self.writes: dict[RowId, Optional[Mapping[str, object]]] = {}
        self.write_order: list[RowId] = []

        # The engine's commit mutex, which every resolution holds while it
        # changes the status and drains the callbacks: a waiter thread
        # subscribes under it while the owner thread resolves.
        self._latch = latch

    # ------------------------------------------------------------------
    # Footprint recording
    # ------------------------------------------------------------------
    def record_read(self, row: RowId, version_ts: int) -> None:
        """Record that ``row`` was read at ``version_ts``.

        Re-reads keep the first recorded version: under SI a transaction
        always sees the same version, and an own-write read (``OWN_WRITE``)
        must not mask the snapshot version that was read earlier.
        """
        if row not in self.reads:
            self.reads[row] = version_ts

    def record_predicate(
        self, table: str, description: str, matched: tuple[Hashable, ...]
    ) -> None:
        if not self.predicate_reads:
            self.predicate_reads = []
        self.predicate_reads.append(PredicateRead(table, description, matched))

    @property
    def is_read_only(self) -> bool:
        """True when the transaction staged no writes (SFU included).

        Read-only transactions commit without a WAL flush — the effect at
        the heart of the paper's Figure 5(b) analysis.
        """
        return not self.writes and not self.cc_writes

    @property
    def is_untouched(self) -> bool:
        """True while it has read, written and locked nothing: all it
        owns is its snapshot (see ``Database.restart``)."""
        return not (
            self.reads
            or self.writes
            or self.cc_writes
            or self.sfu_rows
            or self.predicate_reads
        )

    @property
    def needs_wal_flush(self) -> bool:
        """True when committing requires a log-disk write.

        Commercial-style SFU locks are concurrency-control state only; they
        generate no log record, which is why ``PromoteBW-sfu`` does not pay
        the extra disk write that ``PromoteBW-upd`` does.
        """
        return bool(self.writes)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        return self.status is TxnStatus.ACTIVE

    def ensure_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txid} is {self.status.value}"
            )

    def concurrent_with(self, other: "Transaction") -> bool:
        """True when the two transactions' lifetimes overlapped.

        Two transactions are concurrent when neither committed before the
        other started.  Uncommitted transactions extend to "now".
        """
        if self is other:
            return False

        def ended_before(a: "Transaction", b: "Transaction") -> bool:
            return a.commit_ts is not None and a.commit_ts <= b.start_ts

        return not ended_before(self, other) and not ended_before(other, self)

    # ------------------------------------------------------------------
    # Resolution callbacks
    # ------------------------------------------------------------------
    def add_resolution_callback(
        self, callback: Callable[["Transaction"], None]
    ) -> None:
        """Invoke ``callback(self)`` when this transaction commits or aborts.

        If the transaction is already resolved, the callback fires
        immediately (so waiters never miss the wake-up).  Registration holds
        the engine's commit mutex, as every resolution does from its status
        change to :meth:`drain_callbacks`: either the callback lands
        in the list the resolver drains, or it observes the resolved status
        and fires here — it can never be appended to an already-drained
        list and silently lost.

        A PREPARED transaction is *unresolved*: it still holds its row
        locks, so waiters must keep queueing (firing immediately would spin
        them against the held lock) until the coordinator's decision
        commits or aborts it.
        """
        with self._latch:
            if self.status in (TxnStatus.ACTIVE, TxnStatus.PREPARED):
                if not self._resolution_callbacks:
                    self._resolution_callbacks = []
                self._resolution_callbacks.append(callback)
                return
        callback(self)

    def drain_callbacks(
        self,
    ) -> "list[Callable[[Transaction], None]] | tuple[()]":
        """Detach and return the pending callbacks (engine commit/abort).

        Must be called under the commit mutex, in the hold that moved
        :attr:`status` out of ``ACTIVE``: late subscribers then self-fire
        instead of appending to the drained list.
        """
        callbacks = self._resolution_callbacks
        self._resolution_callbacks = ()
        return callbacks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction(txid={self.txid}, label={self.label!r}, "
            f"status={self.status.value}, start={self.start_ts}, "
            f"commit={self.commit_ts})"
        )
