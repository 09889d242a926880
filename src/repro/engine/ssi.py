"""Serializable Snapshot Isolation certifier (engine extension).

This implements the essence of Cahill/Röhm/Fekete's SSI algorithm (SIGMOD
2008; later the basis of PostgreSQL 9.1's true SERIALIZABLE level), which
the paper's conclusion points to as future work: instead of the DBA
rewriting programs with materialization/promotion, the engine itself aborts
one transaction of every *dangerous structure* it observes at runtime.

The certifier tracks, per transaction, whether it has an incoming and/or an
outgoing rw anti-dependency with a *concurrent* transaction:

* ``T.out_conflict`` — T read a version that a concurrent transaction
  overwrote (rw edge T -> U);
* ``T.in_conflict`` — a concurrent transaction read a version T overwrote
  (rw edge U -> T).

A transaction with both flags set is a *pivot* — the middle of two
consecutive rw edges, exactly the dangerous structure of the static theory
— and is aborted (:class:`~repro.errors.SsiAbort`).  This is conservative
(false positives are possible: the two edges need not lie on a cycle) but
guarantees every execution is serializable, which the test-suite verifies
with the MVSG checker.

SIREAD bookkeeping survives commit: a committed reader's entries are kept
until no overlapping transaction remains active, as in the published
algorithm.  Each transaction's entries are forgotten through its own list
of rows read, so forgetting one costs its reads, not the whole table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.engine.locks import RowId
from repro.engine.transaction import Transaction, TxnStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.engine import Database

_UNDECIDED = (TxnStatus.ACTIVE, TxnStatus.PREPARED)
_VOTED = (TxnStatus.PREPARED, TxnStatus.COMMITTED)


class SsiCertifier:
    """Runtime dangerous-structure detection for an SI engine.

    The certifier takes no lock of its own: the engine calls every hook
    but :meth:`is_doomed` under its commit mutex (DESIGN.md §9), and that
    mutex serializes all mutation of the SIREAD table and the tracked-txn
    map.
    :meth:`is_doomed` is called without it — a set-membership probe is
    atomic under the GIL, and a doom raced past the probe is still caught
    at commit (which re-checks under the commit mutex).
    """

    def __init__(self) -> None:
        # row -> ids of transactions that read it (SIREAD "locks"), and
        # txid -> the rows it registered there; no entry is ever empty.
        self._sireads: dict[RowId, set[int]] = {}
        self._rows_read: dict[int, set[RowId]] = {}
        # Transactions we still track (active, or committed-but-overlapping).
        self._txns: dict[int, Transaction] = {}
        #: Transactions that must abort at their next operation or commit.
        self.doomed: set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by the engine)
    # ------------------------------------------------------------------
    def on_begin(self, txn: Transaction) -> None:
        self._txns[txn.txid] = txn

    def on_read(self, txn: Transaction, row: RowId, db: "Database") -> None:
        """Record a read and derive rw edges toward concurrent writers."""
        self._sireads.setdefault(row, set()).add(txn.txid)
        self._rows_read.setdefault(txn.txid, set()).add(row)
        chain = db.catalog.table(row[0]).rows.get(row[1])
        if chain is None:  # nobody wrote it: no newer version, no writer
            return
        # Concurrent committed writers that produced a newer version
        # than the one this snapshot read.
        for version in reversed(chain.versions):
            if version.commit_ts <= txn.snapshot_ts:
                break
            writer = self._txns.get(version.txid)
            if writer is not None and writer.txid != txn.txid:
                self._mark_rw(reader=txn, writer=writer)
        # A concurrent *uncommitted* writer holding the row (a
        # PREPARED one included: it may still commit).
        uncommitted = chain.uncommitted
        if uncommitted is not None and uncommitted[0] != txn.txid:
            writer = self._txns.get(uncommitted[0])
            if writer is not None and writer.status in _UNDECIDED:
                self._mark_rw(reader=txn, writer=writer)

    def on_write(self, txn: Transaction, row: RowId) -> None:
        """Record a write and derive rw edges from concurrent readers."""
        for reader_id in self._sireads.get(row, ()):
            if reader_id == txn.txid:
                continue
            reader = self._txns.get(reader_id)
            if reader is None:
                continue
            if reader.is_active or reader.concurrent_with(txn):
                self._mark_rw(reader=reader, writer=txn)

    def on_resolve(self, txn: Transaction, active_txns: Iterable[Transaction]) -> None:
        """Prune state once transactions can no longer matter.

        A committed transaction's SIREAD entries (and conflict flags) are
        retained while any active transaction overlaps it; an aborted
        transaction is dropped immediately.
        """
        if txn.status is TxnStatus.ABORTED:
            self._forget(txn.txid)
        starts = [t.start_ts for t in active_txns if t.is_active]
        watermark = min(starts) if starts else None
        stale = [
            txid
            for txid, tracked in self._txns.items()
            if tracked.status is TxnStatus.COMMITTED
            and (watermark is None or (tracked.commit_ts or 0) <= watermark)
        ]
        for txid in stale:
            self._forget(txid)

    def is_doomed(self, txn: Transaction) -> bool:
        return txn.txid in self.doomed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _mark_rw(self, *, reader: Transaction, writer: Transaction) -> None:
        """Register the anti-dependency ``reader --rw--> writer``."""
        reader.out_conflict = True
        writer.in_conflict = True
        self._doom_if_pivot(reader, other=writer)
        self._doom_if_pivot(writer, other=reader)

    def _doom_if_pivot(self, txn: Transaction, other: Transaction) -> None:
        """Abort somebody once ``txn`` becomes a pivot.

        The pivot itself is the victim while it is still active.  When the
        pivot already committed — or voted to (PREPARED: only the
        coordinator can abort it now) — the transaction creating the new
        edge is the only one that can still be stopped; dooming it is
        Cahill's "abort the transaction setting the flag" rule.
        """
        if not (txn.in_conflict and txn.out_conflict):
            return
        if txn.is_active:
            self.doomed.add(txn.txid)
        elif txn.status in _VOTED and other.is_active:
            self.doomed.add(other.txid)

    def _forget(self, txid: int) -> None:
        self._txns.pop(txid, None)
        self.doomed.discard(txid)
        sireads = self._sireads
        for row in self._rows_read.pop(txid, ()):
            readers = sireads[row]
            readers.discard(txid)
            if not readers:
                del sireads[row]
