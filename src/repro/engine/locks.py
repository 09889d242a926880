"""Row-level lock manager with a waits-for graph for deadlock detection.

Snapshot Isolation only ever takes **exclusive** row locks (for writes and
``SELECT ... FOR UPDATE``); reads never lock.  The strict two-phase-locking
mode additionally takes **shared** read locks.  Locks are held until the
owning transaction resolves (commits or aborts) — the engine releases them
via :meth:`LockManager.release_all`.

The manager itself never blocks.  ``try_acquire`` either grants the lock or
returns the set of conflicting holder transaction ids; the *session* layer
decides how to wait (real thread wait, simulated-time wait, or surfacing the
block to a test that is manually stepping transactions).  Before waiting,
sessions must register the dependency through :meth:`begin_wait`, which
performs deadlock detection on the waits-for graph.
"""

from __future__ import annotations

import enum
from typing import Hashable, Iterable, Optional

from repro.errors import DeadlockError

RowId = tuple[str, Hashable]
"""A lockable resource: ``(table_name, primary_key)``."""


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


_EXCLUSIVE = LockMode.EXCLUSIVE
_GRANTED: frozenset[int] = frozenset()


class LockManager:
    """Tracks row locks and the waits-for graph.

    The caller (the :class:`~repro.engine.engine.Database`) serializes
    access — every call runs under the engine's commit mutex (DESIGN.md
    §9) — so this class needs no internal locking.

    ``lock_timeout`` is the maximum time (seconds) a session may wait for a
    lock before the wait expires with :class:`~repro.errors.LockTimeout`.
    The manager itself never blocks, so enforcement happens in the waiting
    layer (:mod:`repro.engine.session`); the value lives here because it is
    lock-manager policy, alongside deadlock detection.

    The lock table is two public dicts, :attr:`table` and :attr:`held`.
    The :class:`~repro.engine.engine.Database` runs two fast paths on
    them in its own frames: ``_stage`` has an inlined copy of
    :meth:`try_acquire`'s grant of a row nobody holds, and ``commit`` one
    of :meth:`release_all`.  A change to the table's format changes those
    copies with the methods.
    """

    def __init__(self, lock_timeout: Optional[float] = None) -> None:
        if lock_timeout is not None and lock_timeout <= 0:
            raise ValueError("lock_timeout must be positive (or None to wait forever)")
        self.lock_timeout = lock_timeout
        #: row -> ``{holder txid: mode}``; a row nobody holds has no entry.
        self.table: dict[RowId, dict[int, LockMode]] = {}
        #: txid -> the rows it holds; a transaction holding none has no entry.
        self.held: dict[int, set[RowId]] = {}
        # txid -> ids of transactions it currently waits for.
        self._waits_for: dict[int, frozenset[int]] = {}

    # ------------------------------------------------------------------
    # Acquisition / release
    # ------------------------------------------------------------------
    def try_acquire(self, txid: int, row: RowId, mode: LockMode) -> frozenset[int]:
        """Attempt to lock ``row`` in ``mode`` for ``txid``.

        Returns an empty frozenset when the lock was granted (or upgraded),
        otherwise the non-empty frozenset of blocking transaction ids.
        Lock upgrade (shared -> exclusive) is supported and subject to the
        same conflict rules against *other* holders.
        """
        holders = self.table.get(row)
        if holders is None:  # ``Database._stage`` inlines this grant
            self.table[row] = {txid: mode}
        else:
            current = holders.get(txid)
            if current is None or len(holders) > 1:  # somebody else is here
                blockers = {
                    other
                    for other, held in holders.items()
                    if other != txid
                    and (held is _EXCLUSIVE or mode is _EXCLUSIVE)
                }
                if blockers:
                    return frozenset(blockers)
            if current is not _EXCLUSIVE:  # first grant, or an upgrade
                holders[txid] = mode
        held_rows = self.held.get(txid)
        if held_rows is None:
            self.held[txid] = {row}
        else:
            held_rows.add(row)
        return _GRANTED

    def holds(self, txid: int, row: RowId, mode: Optional[LockMode] = None) -> bool:
        held = self.table.get(row, {}).get(txid)
        return held is not None and (mode is None or held is mode)

    def holders(self, row: RowId) -> dict[int, LockMode]:
        return dict(self.table.get(row, ()))

    def rows_held_by(self, txid: int) -> frozenset[RowId]:
        return frozenset(self.held.get(txid, ()))

    def release_all(self, txid: int) -> list[RowId]:
        """Release every lock held by ``txid`` and drop its waits-for
        edges; returns the freed rows, in no particular order.
        ``Database.commit`` inlines this, less the waits-for edges: a
        committing transaction waits for nobody."""
        self._waits_for.pop(txid, None)
        rows = self.held.pop(txid, ())
        locks = self.table
        for row in rows:
            holders = locks[row]
            del holders[txid]
            if not holders:
                del locks[row]
        return list(rows)

    # ------------------------------------------------------------------
    # Waits-for graph / deadlock detection
    # ------------------------------------------------------------------
    def begin_wait(self, txid: int, blockers: Iterable[int]) -> None:
        """Register that ``txid`` is about to wait for ``blockers``.

        Raises :class:`DeadlockError` (without registering the wait) if the
        new edges would close a cycle in the waits-for graph.  The policy is
        "requester dies": the transaction that *would* create the cycle is
        the victim, which matches how PostgreSQL reports the deadlock to one
        of the participants.
        """
        blocker_set = frozenset(blockers)
        if txid in blocker_set:
            raise ValueError("a transaction cannot wait for itself")
        for blocker in blocker_set:
            if self._reaches(blocker, txid):
                raise DeadlockError(
                    f"deadlock detected: txn {txid} waiting for {blocker} "
                    f"which (transitively) waits for txn {txid}"
                )
        self._waits_for[txid] = blocker_set

    def end_wait(self, txid: int) -> None:
        """Remove ``txid``'s outgoing waits-for edges (it woke up)."""
        self._waits_for.pop(txid, None)

    def waiting_for(self, txid: int) -> frozenset[int]:
        return self._waits_for.get(txid, frozenset())

    def _reaches(self, source: int, target: int) -> bool:
        """True when ``source`` can reach ``target`` in the waits-for graph."""
        if source == target:
            return True
        seen: set[int] = set()
        stack = [source]
        while stack:
            node = stack.pop()
            if node == target:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._waits_for.get(node, ()))
        return False
