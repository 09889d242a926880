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
stages a record in the volatile tail and :meth:`WriteAheadLog.flush` moves
the boundary past everything staged so far.  A crash discards the tail;
only :attr:`WriteAheadLog.durable_records` survive.  In normal operation the
engine flushes at every commit (the client only sees the commit succeed once
the record is durable); a fault plan may crash the engine between the append
and the flush — exactly the window a real power failure hits.

The performance simulator does not move bytes; it charges the *flush* to a
group-commit disk resource (:class:`repro.sim.resources.GroupCommitLog`).
This module keeps the logical record stream so tests can assert exactly
which transactions would have forced a flush.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from repro.engine.locks import RowId
from repro.errors import DatabaseCrashed

#: One redo entry: the row written and its full after-image (``None`` for a
#: deletion tombstone).
RedoEntry = tuple[RowId, Optional[Mapping[str, object]]]


@dataclass(frozen=True, slots=True)
class WalRecord:
    """One log record.

    ``redo`` pairs each row written, in write order, with its after-image;
    :attr:`rows` names the rows alone.

    ``kind`` distinguishes the three record types of the presumed-abort
    two-phase-commit protocol (DESIGN.md §12):

    * ``"commit"`` — an ordinary single-site commit (the default; carries
      its redo payload and a real ``commit_ts``);
    * ``"prepare"`` — a participant's YES vote: carries the *full redo
      payload* under its global transaction id (``gtid``) but no commit
      timestamp yet (``commit_ts == 0``); nothing is visible until a
      decision record follows;
    * ``"commit-2pc"`` — the coordinator's commit decision for ``gtid``:
      carries only the decision timestamp (presumed abort keeps decisions
      small); recovery applies the redo stashed by the matching prepare.

    There is deliberately *no* abort record: under presumed abort, a
    prepare with no decision in the durable log **is** the abort.
    """

    commit_ts: int
    txid: int
    label: str
    redo: tuple[RedoEntry, ...] = ()
    kind: str = "commit"
    gtid: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("commit", "prepare", "commit-2pc"):
            raise ValueError(f"unknown WAL record kind {self.kind!r}")
        if self.kind != "commit" and self.gtid is None:
            raise ValueError(f"{self.kind} records require a gtid")

    @property
    def rows(self) -> tuple[RowId, ...]:
        """The rows written, in write order."""
        return tuple([row for row, _ in self.redo])


class WriteAheadLog:
    """Append-only list of commit records, ordered by commit timestamp.

    Records sit in a volatile tail until :meth:`flush` advances the flush
    boundary past them; :meth:`truncate_to_flushed` models a crash by
    discarding the tail.
    """

    def __init__(self) -> None:
        self._records: list[WalRecord] = []
        self._flushed = 0

    def append(self, record: WalRecord) -> None:
        # Prepare records carry no commit timestamp (their position in the
        # log is irrelevant — recovery matches them to decisions by gtid),
        # so only decision-bearing records participate in the monotonicity
        # invariant, and they compare against the last decision-bearing
        # record, skipping any interleaved prepares.
        if record.kind != "prepare":
            if record.commit_ts <= self._last_decision_ts():
                raise ValueError(
                    "WAL records must have increasing commit timestamps"
                )
        self._records.append(record)

    def _last_decision_ts(self) -> int:
        """Commit timestamp of the newest non-prepare record (0 if none).

        Scans back over trailing prepare records only — in practice zero
        or a handful, since prepares are short-lived.
        """
        for record in reversed(self._records):
            if record.kind != "prepare":
                return record.commit_ts
        return 0

    def flush(self) -> int:
        """Make every staged record durable; returns the flush boundary."""
        self._flushed = len(self._records)
        return self._flushed

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
        return dropped

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[WalRecord]:
        return iter(self._records)

    def records_for(self, label: str) -> tuple[WalRecord, ...]:
        """All records written by transactions with the given label."""
        return tuple(r for r in self._records if r.label == label)


class GroupCommitBuffer:
    """Batches WAL appends + flushes outside the engine's commit mutex.

    The commit protocol (DESIGN.md §9) *stages* a record while holding the
    commit mutex — that fixes the record's position in the log, because
    staging happens in commit-timestamp order — and performs the actual
    append + flush after the mutex is released, via :meth:`sync`.  The
    first committer to reach :meth:`sync` becomes the *leader*: it drains
    every staged record (its own and any staged by commits racing behind
    the mutex) into the log and flushes once.  Followers find their record
    already durable and return without touching the log — the classic
    group-commit pattern, which keeps the commit critical section free of
    log work.

    A commit is only acknowledged (``Database.commit`` returns) after its
    record is durable, so the client-visible durability contract is
    unchanged from flush-per-commit.
    """

    def __init__(self) -> None:
        self._pending: "deque[WalRecord]" = deque()
        self._flush_mutex = threading.Lock()
        self._flushed_through = 0  # commit_ts of the newest durable record

    def stage(self, record: WalRecord) -> None:
        """Enqueue a record for the next flush.

        Must be called under the engine's commit mutex so records enter
        the queue in commit-timestamp order.  Only decision-bearing
        records (``kind`` ``"commit"`` / ``"commit-2pc"``) may be staged:
        the leader-election dedup in :meth:`sync` is keyed by
        ``commit_ts``, which a prepare record does not have — prepares go
        through :meth:`append_durable` instead.
        """
        if record.kind == "prepare":
            raise ValueError(
                "prepare records bypass group commit; use append_durable"
            )
        self._pending.append(record)

    def append_durable(self, wal: WriteAheadLog, record: WalRecord) -> None:
        """Append + flush one record immediately (2PC prepare path).

        A participant's YES vote must be durable *before* it is returned
        to the coordinator, and a prepare record has no commit timestamp
        to batch under, so it takes the flush mutex and goes straight to
        the log.  Holding the mutex also serializes the append against a
        concurrent leader's drain loop; the flush makes any records the
        leader already appended durable a moment early, which is safe
        (durability is monotone).
        """
        with self._flush_mutex:
            wal.append(record)
            wal.flush()

    def sync(self, wal: WriteAheadLog, record: WalRecord) -> int:
        """Block until ``record`` is durable, flushing a batch if needed.

        Returns the number of records *this* call drained and flushed —
        the group-commit batch size when the caller became the leader, 0
        when it was a follower whose record another leader's batch already
        covered.  (The observability layer feeds this into the
        ``repro_wal_batch_size`` histogram.)

        Raises :class:`~repro.errors.DatabaseCrashed` when the record is
        neither durable nor pending: an injected crash spilled it into the
        WAL's (then truncated) volatile tail, so the commit was lost and
        must not be acknowledged to the client.
        """
        with self._flush_mutex:
            if record.commit_ts <= self._flushed_through:
                return 0  # another leader's batch already covered us
            pending = self._pending
            batch = 0
            while pending:
                staged = pending.popleft()
                wal.append(staged)
                self._flushed_through = staged.commit_ts
                batch += 1
            if record.commit_ts > self._flushed_through:
                raise DatabaseCrashed(
                    f"commit {record.commit_ts} (txn {record.txid}) was "
                    "staged but lost to a crash before the group flush"
                )
            wal.flush()
            return batch

    def spill_unflushed(self, wal: WriteAheadLog) -> None:
        """Crash path: append staged records *without* flushing.

        Models power failing between the append and the flush — the
        records land in the WAL's volatile tail, which the crash then
        discards.  Called under the commit mutex while crashing, so no
        concurrent :meth:`sync` can flush them first.
        """
        with self._flush_mutex:
            while self._pending:
                wal.append(self._pending.popleft())
