"""Logical write-ahead log with redo payloads and a flush boundary.

The engine appends one :class:`WalRecord` per committing transaction *that
wrote something*.  Read-only transactions (including transactions whose only
"write" is a commercial-style ``SELECT FOR UPDATE`` lock) append nothing —
the asymmetry that drives the paper's MPL-1 analysis: a strategy that turns
the read-only Balance program into an updater makes every transaction pay a
log-disk write.

Each record carries its *redo payload*: the full after-image of every row
the transaction wrote (``None`` marks a deletion tombstone).  Replaying the
payloads of a WAL prefix in order rebuilds the committed state as of that
prefix — the contract :mod:`repro.engine.recovery` relies on.

Durability is modelled with a *flush boundary*: :meth:`WriteAheadLog.append`
stages a record in the volatile tail, and an append with ``durable=True``
moves the boundary past everything staged so far.  A crash discards the tail;
only :attr:`WriteAheadLog.durable_records` survive.  In normal operation the
engine appends and flushes each record in the hold of its commit mutex that
decides the commit (the client only sees the commit succeed once the record
is durable), so records arrive in timestamp order and one flush covers one
record; a fault plan may crash the engine between the append and the flush —
exactly the window a real power failure hits.

The performance simulator does not move bytes; it charges the *flush* to a
group-commit disk resource (:class:`repro.sim.resources.GroupCommitLog`).
This module keeps the logical record stream so tests can assert exactly
which transactions would have forced a flush.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping, NamedTuple, Optional

from repro.engine.locks import RowId

#: One redo entry: the table, the key and the row's full after-image
#: (``None`` for a deletion tombstone), as one flat triple.
RedoEntry = tuple[str, Hashable, Optional[Mapping[str, object]]]

_KINDS = ("commit", "prepare", "commit-2pc")


class WalRecord(NamedTuple):
    """One log record: a tuple, so building one sets no attribute one at a
    time, and it cannot be changed once built.

    ``redo`` holds one ``(table, key, after_image)`` triple per row
    written, in write order; :attr:`rows` names the rows alone.

    ``kind`` distinguishes the three record types of the presumed-abort
    two-phase-commit protocol (DESIGN.md §12):

    * ``"commit"`` — an ordinary single-site commit (the default; carries
      its redo payload and a real ``commit_ts``);
    * ``"prepare"`` — a participant's YES vote: carries the *full redo
      payload* under its global transaction id (``gtid``) and, in
      ``commit_ts``, the prepare timestamp of a cluster branch (0 for any
      other); nothing is visible until a decision record follows;
    * ``"commit-2pc"`` — the coordinator's commit decision for ``gtid``:
      carries only the decision timestamp (presumed abort keeps decisions
      small); recovery applies the redo stashed by the matching prepare.

    There is deliberately *no* abort record: under presumed abort, a
    prepare with no decision in the durable log **is** the abort.
    ``kind`` and ``gtid`` are checked where a record enters the log
    (:meth:`WriteAheadLog.append`).
    """

    commit_ts: int
    txid: int
    label: str
    redo: tuple[RedoEntry, ...] = ()
    kind: str = "commit"
    gtid: Optional[str] = None

    @property
    def rows(self) -> tuple[RowId, ...]:
        """The rows written, in write order."""
        return tuple([(table, key) for table, key, _ in self.redo])


class WriteAheadLog:
    """Append-only list of commit records; each plain commit's timestamp
    is above every earlier record's.

    Records sit in a volatile tail until a durable :meth:`append` advances
    the flush boundary past them; :meth:`truncate_to_flushed` models a crash by
    discarding the tail.
    """

    def __init__(self) -> None:
        self._records: list[WalRecord] = []
        self._flushed = 0
        # The highest timestamp of any record (0 if none).
        self._decided_ts = 0

    def append(self, record: WalRecord, *, durable: bool = False) -> None:
        """Stage ``record`` in the volatile tail, or with ``durable`` make
        everything staged so far durable too (the append, then the flush).

        A plain commit must come in increasing timestamp order.  A 2PC
        record's timestamp may be lower: a prepare's is its prepare
        timestamp or 0, a ``commit-2pc``'s its coordinator's (Clock-SI,
        DESIGN.md §12) — recovery matches the two by gtid.
        """
        kind = record.kind
        if kind == "commit":
            if record.commit_ts <= self._decided_ts:
                raise ValueError(
                    "WAL records must have increasing commit timestamps"
                )
            self._decided_ts = record.commit_ts
        else:
            if kind not in _KINDS:
                raise ValueError(f"unknown WAL record kind {kind!r}")
            if record.gtid is None:
                raise ValueError(f"{kind} records require a gtid")
            self._decided_ts = max(self._decided_ts, record.commit_ts)
        records = self._records
        records.append(record)
        if durable:
            self._flushed = len(records)

    @property
    def records(self) -> tuple[WalRecord, ...]:
        return tuple(self._records)

    @property
    def durable_records(self) -> tuple[WalRecord, ...]:
        """The flushed prefix — everything that survives a crash."""
        return tuple(self._records[: self._flushed])

    @property
    def unflushed_count(self) -> int:
        """Records staged but not yet durable (lost on crash)."""
        return len(self._records) - self._flushed

    def truncate_to_flushed(self) -> tuple[WalRecord, ...]:
        """Discard the volatile tail (crash); returns the dropped records."""
        dropped = tuple(self._records[self._flushed :])
        del self._records[self._flushed :]
        self._decided_ts = max((r.commit_ts for r in self._records), default=0)
        return dropped

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[WalRecord]:
        return iter(self._records)

    def records_for(self, label: str) -> tuple[WalRecord, ...]:
        """All records written by transactions with the given label."""
        return tuple(r for r in self._records if r.label == label)
