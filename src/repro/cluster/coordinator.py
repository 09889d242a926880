"""Presumed-abort two-phase commit coordinator (DESIGN.md §12.4, §13).

Phase 1 sends ``PREPARE_2PC`` to every *writing* branch in shard order
(:meth:`TwoPhaseCoordinator.commit_two_phase`), or rides on the router's
program ``CALL`` frames, which end ``prepare:<gtid>`` (the router then drives
:meth:`~TwoPhaseCoordinator.abort` / :meth:`~TwoPhaseCoordinator.decide_commit`
itself); a participant votes YES by making the prepare record durable and
moving the transaction to PREPARED, or votes NO by aborting it (any engine
error — serialization failure, SSI doom, integrity violation — IS the NO
vote).  Phase 2 records the decision on the coordinator's
:class:`DecisionLog`, then delivers it: ``COMMIT_2PC`` to every prepared
branch under the oracle's exclusive decision window, or ``ABORT_2PC`` to
the branches already prepared when some later vote came back NO.

*Presumed abort*: participants never ask the coordinator — a durable
prepare followed by a durable decision record in the participant's WAL
means committed; a durable prepare with no decision means aborted.  The
:class:`DecisionLog` is the coordinator half of that story: a commit
decision is recorded there *before* any participant hears it, so a
coordinator crash after the record still commits on recovery
(:meth:`resolve_in_doubt` re-delivers), while a crash before it presumes
abort.  The log models the force-write a real coordinator performs; it
outlives any one :class:`TwoPhaseCoordinator` instance, which is exactly
the coordinator-recovery contract.

Fault injection (DESIGN.md §13): with a :class:`~repro.faults.FaultPlan`
installed, ``coordinator-crash-window`` kills the coordinator after all
prepares and before any decision lands (alternating fires cover both
sides of the log write), surfacing :class:`~repro.errors.CoordinatorCrashed`
— an *outcome-unknown* error, deliberately not a
:class:`~repro.errors.TransactionAborted`.  ``net-dup-decision``
re-delivers a commit decision immediately, exercising the participants'
idempotent-redelivery contract on the live path.

``decision_hook`` is a test seam: called between per-participant
COMMIT_2PC deliveries so a reader that bypasses the router (two plain
``tcp://`` snapshots) can be wedged into the middle of a decision
broadcast — the fractured-read demonstration.  It must never begin a
``cluster://`` transaction: that blocks on the oracle latch the hook's
caller is holding.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.cluster.fanout import first_error, scatter_gather
from repro.cluster.oracle import TimestampOracle
from repro.errors import (
    CoordinatorCrashed,
    ReproError,
    TransactionStateError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults import FaultPlan
    from repro.obs import Observability


class DecisionLog:
    """The coordinator's durable decision store (one per cluster).

    Stand-in for the force-written log record a real coordinator hardens
    before broadcasting a commit: decisions recorded here survive the
    coordinator *object* dying (our model of a coordinator process
    crash), so a recovered coordinator — or the in-doubt resolver acting
    on its behalf — re-reads the same outcomes.  Append-only per gtid: a
    decision can be re-recorded identically (idempotent) but never
    flipped.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._decisions: "dict[str, str]" = {}

    def record(self, gtid: str, decision: str) -> None:
        if decision not in ("commit", "abort"):
            raise ValueError(f"decision must be 'commit' or 'abort', got {decision!r}")
        with self._lock:
            existing = self._decisions.setdefault(gtid, decision)
            if existing != decision:
                raise TransactionStateError(
                    f"decision for {gtid!r} already logged as {existing!r}; "
                    f"cannot record {decision!r}"
                )

    def decision_for(self, gtid: str) -> Optional[str]:
        with self._lock:
            return self._decisions.get(gtid)

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
        oracle: TimestampOracle,
        *,
        decision_hook: "Optional[Callable[[str, int], None]]" = None,
        decision_log: "Optional[DecisionLog]" = None,
        fault_plan: "FaultPlan | None" = None,
        obs: "Observability | None" = None,
    ) -> None:
        self.oracle = oracle
        self.decision_hook = decision_hook
        #: Durable decision store — shareable across coordinator
        #: incarnations (coordinator recovery hands the same log to a
        #: fresh instance).
        self.log = decision_log if decision_log is not None else DecisionLog()
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

    def commit_two_phase(self, gtid: str, writers: Sequence) -> None:
        """Atomically commit ``writers`` (network sessions) under ``gtid``.

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
            self.decide_commit(gtid, prepared)
        finally:
            self.untrack(gtid)

    def abort(self, gtid: str, prepared: Sequence) -> None:
        """Decide abort: log it, then tell the branches that voted YES.

        Delivery is best effort — a branch that cannot be reached (or
        prepared without our hearing of it) is settled by the resolver
        from the logged decision; recovery presumes abort anyway.
        """
        self.log.record(gtid, "abort")
        scatter_gather(  # outcomes gathered and dropped: best effort
            [partial(branch.start_abort_2pc, gtid) for branch in prepared],
            op="2pc-abort",
            obs=self.obs,
        )

    def decide_commit(self, gtid: str, prepared: Sequence) -> None:
        """Every vote is YES: log the commit, then deliver it.

        Call between :meth:`track` and :meth:`untrack`.  Decision
        delivery errors (a participant crashing *after* the decision was
        recorded) are re-raised once every reachable participant has
        been told — the decision stands and recovery re-delivers it to
        the rest.
        """
        plan = self.faults
        if plan is not None and plan.should_fire("coordinator-crash-window"):
            # The protocol's in-doubt window: every vote is YES, no
            # participant has heard a decision.  Alternate fires die
            # before vs just after the decision log write, covering
            # presumed abort *and* commit re-delivery on recovery.
            crashed_after_log = plan.fired("coordinator-crash-window") % 2 == 0
            if crashed_after_log:
                self.log.record(gtid, "commit")
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
        self.log.record(gtid, "commit")

        def start_delivery(branch) -> "Callable[[], object]":
            delivered = branch.start_commit_2pc(gtid)
            if plan is None:
                return delivered

            def delivered_maybe_twice() -> None:
                delivered()
                if plan.should_fire("net-dup-decision"):
                    if self.obs is not None:
                        self.obs.fault_injected("net-dup-decision")
                    branch.commit_2pc(gtid)  # idempotent by contract

            return delivered_maybe_twice

        # The decision is durable *before* any participant hears it
        # (the presumed-abort ordering argument) — only the deliveries
        # below overlap, never the log write.
        with self.oracle.decision_window():
            if self.decision_hook is not None:
                # Test seam: the hook interposes *between* deliveries,
                # which only means anything serially.
                delivery_error: Optional[BaseException] = None
                for index, branch in enumerate(prepared):
                    if index:
                        self.decision_hook(gtid, index)
                    try:
                        start_delivery(branch)()
                    except ReproError as exc:
                        if delivery_error is None:
                            delivery_error = exc
            else:
                delivery_error = first_error(
                    scatter_gather(
                        [partial(start_delivery, b) for b in prepared],
                        op="2pc-decision",
                        obs=self.obs,
                    )
                )
        if delivery_error is not None:
            raise delivery_error

    def resolve_in_doubt(self, gtid: str, connections: Sequence) -> str:
        """Re-deliver the outcome of ``gtid`` to recovered participants.

        ``connections`` are shard *connections* (not sessions): decision
        ops address transactions by gtid, independent of any wire
        session.  A gtid with no logged decision is presumed aborted —
        exactly the protocol's answer to "prepared, but the coordinator
        never hardened a commit".
        """
        decision = self.log.decision_for(gtid) or "abort"
        if decision == "abort":
            # Harden the presumption so a later resolver pass (or a
            # recovered coordinator) answers identically.
            self.log.record(gtid, "abort")

        error: Optional[BaseException] = None
        for connection in connections:  # each tried, the first error raised
            try:
                if decision == "commit":
                    connection.commit_2pc(gtid)
                else:
                    connection.abort_2pc(gtid)
            except TransactionStateError:
                # Participant never prepared this gtid (or already
                # resolved it the same way) — nothing to re-deliver.
                pass
            except ReproError as exc:
                error = error or exc
        if error is not None:
            raise error
        return decision
