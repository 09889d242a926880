"""Coordinator-side timestamp oracle (DESIGN.md §12.3, §14.3).

Shards have independent commit clocks, so "one consistent snapshot across
all shards" cannot be expressed as a timestamp — there is no global
clock to name.  The oracle instead serialises *events*: taking a snapshot
(BEGIN broadcast) and applying a 2PC decision (COMMIT_2PC broadcast) are
the two cluster-wide moments that must not interleave, and the oracle is
a **two-group latch** over exactly that pair:

* ``snapshot_window()`` — shared *within the snapshot group*.  Any number
  of transactions may open their per-shard snapshots concurrently; none
  of them can overlap a decision broadcast, so each one sees every
  distributed commit on either *all* shards or *none* (no fractured
  reads).
* ``decision_window()`` — shared *within the decision group*.  Decisions
  for distinct gtids touch disjoint prepared transactions and commute,
  so any number of coordinators may deliver their COMMIT_2PC broadcasts
  concurrently — what matters is only that no snapshot opens while *any*
  decision is mid-broadcast.  (The original design made this window
  exclusive, which serialised every cross-shard commit in the cluster on
  one latch; group sharing removes that bottleneck while preserving the
  fractured-read guarantee, which only ever needed snapshot/decision
  mutual exclusion.)

The two groups mutually exclude; members of the same group run
concurrently.  Decision preference is kept from the reader-writer
original: a queued decision blocks *new* snapshots, so a steady stream
of begins cannot starve commits.

The global transaction ids (``gtid``) that name distributed
transactions in 2PC and in merged traces are not the oracle's: each
:class:`~repro.cluster.ClusterConnection` counts its own from
``gtid_base + 1``, so independent router processes (multi-process load
generators sharing one shard fleet) carve disjoint ranges by base.
"""

from __future__ import annotations

import threading


class TimestampOracle:
    """The snapshot/decision two-group latch."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._snapshots = 0         # open snapshot windows
        self._decisions = 0         # decision broadcasts in progress
        self._decisions_waiting = 0 # decisions queued (blocks new snapshots)
        self._snapshot_window = _Window(
            self._enter_snapshot, self._leave_snapshot
        )
        self._decision_window = _Window(
            self._enter_decision, self._leave_decision
        )

    # ------------------------------------------------------------------
    # Snapshot / decision groups
    # ------------------------------------------------------------------
    def snapshot_window(self) -> "_Window":
        """Snapshot-group member: hold while broadcasting BEGIN to every
        shard.  Excludes decisions; shares with other snapshots."""
        return self._snapshot_window

    def _enter_snapshot(self) -> None:
        with self._cond:
            # Decision preference: a queued decision keeps new snapshots
            # out, so a steady stream of begins cannot starve commits.
            while self._decisions or self._decisions_waiting:
                self._cond.wait()
            self._snapshots += 1

    def _leave_snapshot(self) -> None:
        with self._cond:
            self._snapshots -= 1
            if self._snapshots == 0:
                self._cond.notify_all()

    def decision_window(self) -> "_Window":
        """Decision-group member: hold while delivering one gtid's
        COMMIT_2PC to its participants.  Excludes snapshots; shares with
        other decisions (disjoint gtids commute)."""
        return self._decision_window

    def _enter_decision(self) -> None:
        with self._cond:
            self._decisions_waiting += 1
            while self._snapshots:
                self._cond.wait()
            self._decisions_waiting -= 1
            self._decisions += 1

    def _leave_decision(self) -> None:
        with self._cond:
            self._decisions -= 1
            if self._decisions == 0:
                self._cond.notify_all()


class _Window:
    """``with`` form of one latch group.  It holds no state of its own
    (membership is the oracle's counters), so each oracle makes its two
    once and every ``with`` shares them."""

    __slots__ = ("_enter", "_leave")

    def __init__(self, enter, leave) -> None:
        self._enter = enter
        self._leave = leave

    def __enter__(self) -> None:
        self._enter()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._leave()
