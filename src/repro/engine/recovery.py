"""Crash recovery: rebuild a :class:`Database` from a WAL prefix.

The durability contract (the invariant the recovery tests assert):

* every transaction whose commit record lies **inside** the replayed prefix
  is fully redone — all of its row after-images (including deletion
  tombstones) are reinstalled with their original commit timestamps;
* every transaction **outside** the prefix — unflushed, uncommitted, or
  active at the crash — leaves no trace;
* bootstrap rows (:meth:`Database.load_row`) are the checkpoint image
  (:meth:`Database.bootstrap_image`) and are always restored — the
  recovered instance reads them from the same image as the crashed one
  and shares nothing else, so recovery costs the replayed records, not
  the rows;
* the logical clock resumes strictly after the highest replayed commit
  timestamp, so post-recovery transactions can never collide with
  recovered history.

Commercial-style ``SELECT FOR UPDATE`` marks (``cc_write_ts``) are
*volatile* concurrency-control state: they produce no WAL record and are
dropped by recovery, exactly as a real platform's lock table evaporates on
restart.

Replay is idempotent-by-construction: a fresh catalog is built and records
are applied once each, in commit-timestamp order, so recovering twice from
the same prefix yields identical states.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.engine.wal import WalRecord
from repro.errors import RecoveryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> recovery)
    from repro.engine.engine import Database


def replay_records(db: "Database", records: Sequence[WalRecord]) -> "Database":
    """Apply ``records`` (a WAL prefix) to a freshly bootstrapped ``db``.

    ``db`` must contain only bootstrap data.  Records are validated to be a
    well-formed prefix: strictly increasing commit timestamps (for records
    that carry one — 2PC ``prepare`` records do not).

    Two-phase-commit records (DESIGN.md §12, presumed abort): a
    ``prepare`` record is *stashed* by gtid, not applied — nothing of it
    is visible until a decision.  A matching ``commit-2pc`` record pops
    the stash and applies the stashed redo at the decision's timestamp.
    A prepare with no decision in the prefix stays stashed
    (:meth:`Database.hold_in_doubt`): it is in-doubt until the coordinator re-delivers a
    decision (``Database.commit_prepared``) or presumed abort lets it
    rot — either way it left no visible trace, which is exactly the
    promise the participant's YES vote made.
    """
    last_ts = 0
    in_doubt: dict[str, WalRecord] = {}
    for record in records:
        if record.kind == "prepare":
            if record.gtid in in_doubt:
                raise RecoveryError(
                    f"duplicate prepare record for gtid {record.gtid!r}"
                )
            in_doubt[record.gtid] = record
            db.wal.append(record, durable=True)
            continue
        if record.commit_ts <= last_ts:
            raise RecoveryError(
                f"WAL prefix is not ordered: commit_ts {record.commit_ts} "
                f"after {last_ts}"
            )
        last_ts = record.commit_ts
        source = record  # the record whose redo this one applies
        if record.kind == "commit-2pc":
            source = in_doubt.pop(record.gtid, None)
            if source is None:
                raise RecoveryError(
                    f"commit-2pc record for gtid {record.gtid!r} has no "
                    "matching prepare in the durable prefix"
                )
        db._apply_redo(source.redo, record.commit_ts, source.txid)
        # The replayed record is durable in the recovered instance too:
        # recovering from a recovered database is a no-op.
        db.wal.append(record, durable=True)
    db.last_ts = max(db.last_ts, last_ts)  # never reissue a replayed timestamp
    # Survivors are in-doubt: resolvable by coordinator decision
    # re-delivery, dead by presumed abort otherwise — and until then
    # their rows stay locked, as they were before the crash.
    for gtid, record in in_doubt.items():
        db.hold_in_doubt(gtid, record)
    return db


def recover_database(
    crashed: "Database", records: "Iterable[WalRecord] | None" = None
) -> "Database":
    """Build a fresh :class:`Database` holding exactly the durable state.

    ``records`` overrides the WAL prefix to replay (default: the crashed
    instance's flushed prefix) — the hook the durability tests use to
    recover from *every* flush boundary, not just the final one.
    """
    from repro.engine.engine import Database

    schemas = [table.schema for table in crashed.catalog]
    recovered = Database(
        schemas,
        crashed.config,
        observers=list(crashed._observers),
        faults=crashed.faults,
        image=crashed.bootstrap_image(),
    )
    prefix = tuple(records) if records is not None else crashed.wal.durable_records
    return replay_records(recovered, prefix)
