"""Presumed-abort two-phase commit coordinator (DESIGN.md §12.4, §13).

Phase 1 sends ``PREPARE_2PC`` to every *writing* branch in shard order
(:meth:`TwoPhaseCoordinator.commit_two_phase`), or rides on the router's
program ``CALL`` frames, which end ``prepare:<gtid>`` (the router then drives
:meth:`~TwoPhaseCoordinator.abort` / :meth:`~TwoPhaseCoordinator.decide_commit`
itself); a participant votes YES by making the prepare record durable and
moving the transaction to PREPARED, or votes NO by aborting it (any engine
error — serialization failure, SSI doom, integrity violation — IS the NO
vote).  A YES carries the shard's prepare timestamp.  Phase 2 records
the decision on the coordinator's :class:`DecisionLog` — a commit with
its commit timestamp, the largest prepare timestamp (Clock-SI, DESIGN.md
§12) — then delivers it: every shard publishes the transaction at that
one timestamp, so a snapshot sees it on all of them or on none.  The
commit returns once the log holds it: a read that meets a row the
transaction wrote waits on its shard until the decision lands there.

Every decision — the live commit, the abort, the in-doubt re-delivery —
leaves through one method, :meth:`TwoPhaseCoordinator._deliver`: a
one-way ``COMMIT_2PC`` or ``ABORT_2PC`` frame
(:meth:`~repro.net.client.NetworkSession.send_one_way`, no reply awaited)
to each of its targets — the branches on the live path, one fresh
session per shard for a re-delivery.  A shard refuses a decision it
cannot apply silently, counting it (``decisions_refused`` in ``STATS``).

*Presumed abort*: participants never ask the coordinator — a durable
prepare followed by a durable decision record in the participant's WAL
means committed; a durable prepare with no decision means aborted.  The
:class:`DecisionLog` is the coordinator half of that story: a commit
decision is recorded there *before* any participant hears it, so a
coordinator crash after the record still commits on recovery
(:meth:`~TwoPhaseCoordinator.resolve_in_doubt` re-delivers), while a
crash before it presumes abort.  The log models the force-write a real
coordinator performs.

Fault injection (DESIGN.md §13): with a :class:`~repro.faults.FaultPlan`
installed, ``coordinator-crash-window`` kills the coordinator after all
prepares and before any decision lands (alternating fires cover both
sides of the log write), surfacing :class:`~repro.errors.CoordinatorCrashed`
— an *outcome-unknown* error, deliberately not a
:class:`~repro.errors.TransactionAborted`.  ``net-dup-decision``
writes a commit decision's frame a second time right after the first,
exercising the participants' idempotent-redelivery contract.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cluster.fanout import first_error, scatter_gather
from repro.errors import ConnectionClosed, CoordinatorCrashed, TransactionStateError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultPlan
    from repro.obs import Observability


class DecisionLog:
    """The coordinator's durable decision store (one per cluster).

    Stand-in for the force-written log record a real coordinator hardens
    before broadcasting a commit: decisions recorded here survive a
    :class:`~repro.errors.CoordinatorCrashed` (our model of a coordinator
    process crash), so the in-doubt resolver, acting for the recovered
    coordinator, re-reads the same outcomes.  Append-only per gtid: a
    decision can be re-recorded identically (idempotent) but never
    flipped.  A commit keeps its commit timestamp, which every shard
    publishes it at.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._decisions: "dict[str, str]" = {}
        self._commit_ts: "dict[str, int]" = {}

    def record(self, gtid: str, decision: str, commit_ts: int = 0) -> None:
        """Log ``decision`` for ``gtid``: a commit at ``commit_ts`` (> 0),
        an abort with none."""
        if decision not in ("commit", "abort"):
            raise ValueError(f"decision must be 'commit' or 'abort', got {decision!r}")
        if (commit_ts > 0) != (decision == "commit"):
            raise ValueError(f"a {decision} cannot be logged at timestamp {commit_ts}")
        with self._lock:
            existing = self._decisions.setdefault(gtid, decision)
            if existing != decision:
                raise TransactionStateError(
                    f"decision for {gtid!r} already logged as {existing!r}; "
                    f"cannot record {decision!r}"
                )
            if commit_ts:
                self._commit_ts.setdefault(gtid, commit_ts)

    def decision_for(self, gtid: str) -> Optional[str]:
        with self._lock:
            return self._decisions.get(gtid)

    def commit_ts_for(self, gtid: str) -> int:
        """The logged commit timestamp of ``gtid``; 0 unless committed."""
        with self._lock:
            return self._commit_ts.get(gtid, 0)

    def decisions(self) -> "dict[str, str]":
        with self._lock:
            return dict(self._decisions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._decisions)


class TwoPhaseCoordinator:
    """Drives prepare/decide across one cluster's shard branches."""

    def __init__(
        self,
        *,
        fault_plan: "FaultPlan | None" = None,
        obs: "Observability | None" = None,
    ) -> None:
        #: Durable decision store.
        self.log = DecisionLog()
        self.faults = fault_plan
        self.obs = obs
        #: Gtids with a ``commit_two_phase`` currently in flight.  The
        #: background in-doubt resolver must not touch these: a prepared
        #: branch of a live 2PC is not an orphan, its decision broadcast
        #: just has not reached it yet.  (add / discard / copy of a set
        #: are each atomic under the GIL: no lock.)
        self._in_flight: "set[str]" = set()

    def install_faults(self, plan: "FaultPlan | None") -> None:
        self.faults = plan

    def decision_for(self, gtid: str) -> Optional[str]:
        return self.log.decision_for(gtid)

    @property
    def in_flight(self) -> "frozenset[str]":
        return frozenset(self._in_flight)

    def track(self, gtid: str) -> None:
        """Mark ``gtid`` in flight: call before its first prepare, and
        :meth:`untrack` (in a ``finally``) once its decision has been
        delivered or given up on."""
        self._in_flight.add(gtid)

    def untrack(self, gtid: str) -> None:
        self._in_flight.discard(gtid)

    def commit_two_phase(self, gtid: str, writers: Sequence) -> int:
        """Atomically commit ``writers`` (network sessions) under ``gtid``;
        returns the commit timestamp.

        Phase 1 sends PREPARE to every writer, then gathers *all* votes;
        any NO aborts the branches that voted YES and raises the first
        error in shard order, so presumed-abort semantics are unchanged
        — a branch that prepared after the decision fell is an orphan
        the resolver settles from the (already "abort"-recorded)
        decision log.
        """
        self.track(gtid)
        try:
            writers = list(writers)
            votes = scatter_gather(
                [partial(branch.start_prepare_2pc, gtid) for branch in writers],
                op="2pc-prepare",
                obs=self.obs,
            )
            prepared = [
                branch for branch, vote in zip(writers, votes) if vote.ok
            ]
            no_vote = first_error(votes)
            if no_vote is not None:
                self.abort(gtid, prepared)
                raise no_vote
            commit_ts = max(vote.value for vote in votes)
            self.decide_commit(gtid, prepared, commit_ts)
            return commit_ts
        finally:
            self.untrack(gtid)

    def _deliver(
        self, gtid: str, targets: Sequence, commit_ts: int = 0
    ) -> Optional[BaseException]:
        """Write the decision for ``gtid`` — ``COMMIT_2PC`` at
        ``commit_ts``, ``ABORT_2PC`` when it is 0 — to every target as a
        one-way frame, and return the first send's error, if any.  With a
        fault plan, ``net-dup-decision`` may write a commit's frame twice.
        """
        if commit_ts:
            op, args = "COMMIT_2PC", {"gtid": gtid, "ts": commit_ts}
        else:
            op, args = "ABORT_2PC", {"gtid": gtid}
        plan = self.faults if commit_ts else None
        error = None
        for target in targets:
            try:
                target.send_one_way(op, args)
                if plan is not None and plan.should_fire("net-dup-decision"):
                    if self.obs is not None:
                        self.obs.fault_injected("net-dup-decision")
                    target.send_one_way(op, args)  # idempotent by contract
            except ConnectionClosed as exc:
                error = error or exc
        return error

    def abort(self, gtid: str, prepared: Sequence) -> None:
        """Decide abort: log it, then tell the branches that voted YES.

        Delivery is best effort — a branch that cannot be reached (or
        prepared without our hearing of it) is settled by the resolver
        from the logged decision; recovery presumes abort anyway.
        """
        self.log.record(gtid, "abort")
        self._deliver(gtid, prepared)

    def decide_commit(
        self, gtid: str, prepared: Sequence, commit_ts: int
    ) -> None:
        """Every vote is YES: log the commit at ``commit_ts``, then
        write it to every participant, and return.

        Call between :meth:`track` and :meth:`untrack`.  The transaction
        is committed once the log holds the decision, so a send that
        fails after it (a participant gone) fails nobody: the resolver's
        next sweep re-delivers it.
        """
        plan = self.faults
        if plan is not None and plan.should_fire("coordinator-crash-window"):
            # The protocol's in-doubt window: every vote is YES, no
            # participant has heard a decision.  Alternate fires die
            # before vs just after the decision log write, covering
            # presumed abort *and* commit re-delivery on recovery.
            crashed_after_log = plan.fired("coordinator-crash-window") % 2 == 0
            if crashed_after_log:
                self.log.record(gtid, "commit", commit_ts)
            if self.obs is not None:
                self.obs.fault_injected("coordinator-crash-window")
                self.obs.cluster_coordinator_crash()
            raise CoordinatorCrashed(
                f"coordinator crashed holding {len(prepared)} YES "
                f"vote(s) for {gtid!r} "
                f"({'after' if crashed_after_log else 'before'} the "
                f"decision log write)",
                gtid=gtid,
            )
        # The decision is durable *before* any participant hears it
        # (the presumed-abort ordering argument).
        self.log.record(gtid, "commit", commit_ts)
        self._deliver(gtid, prepared, commit_ts)

    def resolve_in_doubt(self, gtid: str, sessions: Sequence) -> str:
        """Re-deliver the outcome of ``gtid`` to recovered participants.

        ``sessions``: one per shard to tell, any session on it (decision
        ops address transactions by gtid, not by wire).  A gtid with no
        logged decision is presumed aborted — exactly the protocol's
        answer to "prepared, but the coordinator never hardened a
        commit".  The decision is written to every session before the
        first send error is raised; a shard that already settled the
        gtid the same way applies it as a no-op.
        """
        decision = self.log.decision_for(gtid) or "abort"
        if decision == "abort":
            # Harden the presumption so a later resolver pass (or a
            # recovered coordinator) answers identically.
            self.log.record(gtid, "abort")
        error = self._deliver(gtid, sessions, self.log.commit_ts_for(gtid))
        if error is not None:
            raise error
        return decision
