"""Execution recording for after-the-fact serializability checking.

An :class:`ExecutionRecorder` subscribes to a
:class:`~repro.engine.engine.Database` as an observer and keeps, for every
*committed* transaction, the footprint the multi-version serialization
graph needs: which version of each item was read, which items were
written, and the begin/commit timestamps.  Aborted transactions cannot
affect serializability of the committed history and are only counted.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.engine import Database
from repro.engine.locks import RowId
from repro.engine.transaction import (
    OWN_WRITE,
    PredicateRead,
    Transaction,
    TxnStatus,
)


@dataclass(frozen=True)
class CommittedTransaction:
    """Immutable footprint of one committed transaction."""

    txid: int
    label: str
    start_ts: int
    snapshot_ts: int
    commit_ts: int
    reads: tuple[tuple[RowId, int], ...]
    """(item, commit_ts of the version read); own-write reads excluded."""
    writes: tuple[RowId, ...]
    cc_writes: tuple[RowId, ...]
    predicate_reads: tuple[PredicateRead, ...]

    @property
    def is_read_only(self) -> bool:
        return not self.writes

    def read_version(self, row: RowId) -> Optional[int]:
        for item, version_ts in self.reads:
            if item == row:
                return version_ts
        return None


class ExecutionRecorder:
    """Collects committed-transaction footprints from a live database."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._committed: list[CommittedTransaction] = []
        self.aborted_count = 0

    # ------------------------------------------------------------------
    def attach(self, db: Database) -> "ExecutionRecorder":
        db.add_observer(self.observe)
        return self

    def observe(self, txn: Transaction) -> None:
        """Database observer callback (fires on commit and abort)."""
        if txn.status is TxnStatus.ABORTED:
            with self._lock:
                self.aborted_count += 1
            return
        if txn.status is not TxnStatus.COMMITTED or txn.commit_ts is None:
            return
        record = CommittedTransaction(
            txid=txn.txid,
            label=txn.label,
            start_ts=txn.start_ts,
            snapshot_ts=txn.snapshot_ts,
            commit_ts=txn.commit_ts,
            reads=tuple(
                (row, version_ts)
                for row, version_ts in sorted(txn.reads.items(), key=repr)
                if version_ts != OWN_WRITE
            ),
            writes=tuple(txn.write_order),
            cc_writes=tuple(sorted(txn.cc_writes, key=repr)),
            predicate_reads=tuple(txn.predicate_reads),
        )
        with self._lock:
            self._committed.append(record)

    # ------------------------------------------------------------------
    @property
    def committed(self) -> tuple[CommittedTransaction, ...]:
        with self._lock:
            return tuple(self._committed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._committed)

    def clear(self) -> None:
        with self._lock:
            self._committed.clear()
            self.aborted_count = 0


def record_database(db: Database) -> ExecutionRecorder:
    """Convenience: create a recorder and attach it to ``db``."""
    return ExecutionRecorder().attach(db)


# ----------------------------------------------------------------------
# Durable-horizon salvage (called by ThreadShard.crash — DESIGN.md §13)
# ----------------------------------------------------------------------
def salvage_durable_history(
    db: Database,
    recorder: ExecutionRecorder,
    *,
    txid_offset: int = 0,
) -> "list[CommittedTransaction]":
    """The recorder's history truncated to the crashed WAL's durable horizon.

    Call on a *crashed* database.  The engine flushes a commit's WAL
    record in the hold of its commit mutex that publishes the commit,
    and the recorder hears of a commit after that hold, so on this
    engine nothing the recorder saw lies past the durable horizon and
    the filter below drops nothing.  It stays as the guard for a log
    that flushes outside that hold: writes past the horizon are dropped
    (their committers saw :class:`~repro.errors.DatabaseCrashed`), and
    so are read-only commits that *observed* a revoked version — their
    reads would otherwise be misattributed to post-restart writers,
    whose timestamps reuse the crashed clock's lost range.
    ``txid_offset`` shifts the salvaged txids into a
    disjoint per-crash epoch range: recovery restarts the txid counter
    at 0 and the MVSG keys nodes by txid.
    """
    from dataclasses import replace

    horizon = max(
        (record.commit_ts for record in db.wal.durable_records),
        default=0,
    )
    salvaged: "list[CommittedTransaction]" = []
    for txn in recorder.committed:
        if txn.is_read_only:
            if any(version_ts > horizon for _row, version_ts in txn.reads):
                continue
        elif txn.commit_ts > horizon:
            continue
        salvaged.append(
            replace(txn, txid=txn.txid + txid_offset) if txid_offset else txn
        )
    return salvaged


# ----------------------------------------------------------------------
# History serialisation (JSONL) — how a fleet shard process ships its
# committed footprints back to the parent for the global MVSG merge.
# ----------------------------------------------------------------------
def committed_to_dict(txn: CommittedTransaction) -> dict:
    """JSON-safe dict for one committed footprint (tuples become lists)."""
    return {
        "txid": txn.txid,
        "label": txn.label,
        "start_ts": txn.start_ts,
        "snapshot_ts": txn.snapshot_ts,
        "commit_ts": txn.commit_ts,
        "reads": [
            [[table, key], version_ts]
            for (table, key), version_ts in txn.reads
        ],
        "writes": [[table, key] for table, key in txn.writes],
        "cc_writes": [[table, key] for table, key in txn.cc_writes],
        "predicate_reads": [
            {
                "table": p.table,
                "description": p.description,
                "matched_keys": list(p.matched_keys),
            }
            for p in txn.predicate_reads
        ],
    }


def committed_from_dict(data: dict) -> CommittedTransaction:
    """Inverse of :func:`committed_to_dict`.

    SmallBank row keys are scalars (str / int), which JSON round-trips
    by type — so ``(table, key)`` row ids reconstruct exactly.
    """
    return CommittedTransaction(
        txid=data["txid"],
        label=data["label"],
        start_ts=data["start_ts"],
        snapshot_ts=data["snapshot_ts"],
        commit_ts=data["commit_ts"],
        reads=tuple(
            ((table, key), version_ts)
            for (table, key), version_ts in data["reads"]
        ),
        writes=tuple((table, key) for table, key in data["writes"]),
        cc_writes=tuple((table, key) for table, key in data["cc_writes"]),
        predicate_reads=tuple(
            PredicateRead(
                table=p["table"],
                description=p["description"],
                matched_keys=tuple(p["matched_keys"]),
            )
            for p in data["predicate_reads"]
        ),
    )


def dump_history_jsonl(
    path, committed: "tuple[CommittedTransaction, ...] | list[CommittedTransaction]"
) -> int:
    """Write committed footprints to ``path``, one JSON object per line."""
    import json

    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for txn in committed:
            handle.write(json.dumps(committed_to_dict(txn), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def load_history_jsonl(path) -> "tuple[CommittedTransaction, ...]":
    """Inverse of :func:`dump_history_jsonl`."""
    import json

    committed: "list[CommittedTransaction]" = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                committed.append(committed_from_dict(json.loads(line)))
    return tuple(committed)
