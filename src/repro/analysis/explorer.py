"""Bounded interleaving exploration (a tiny stateless model checker).

:class:`InterleavingExplorer` runs a small set of transaction programs
under **every** possible statement-level interleaving (up to a schedule
budget) against a freshly built database per schedule, checking each
committed history with the MVSG analysis.  This is how the test-suite
*proves* statements like "plain SI admits the SmallBank read-only anomaly;
strategy X admits no non-serializable schedule of this scenario" instead
of sampling a few lucky thread timings.

Mechanics: each program is a process of one :class:`repro.sim.Simulator`
per schedule, so exactly one runs at a time (the simulator's baton), all
at simulated time 0.  Its session parks it on a fresh :class:`SimEvent`
before ``begin``, before every gated statement and before a flushing
commit; when the last running program parks or finishes, an action in
scheduler context picks the next one and fires its event, so execution is
a deterministic function of the *choice sequence* (which program to step
at each decision point).  A lock wait parks the same way and is resumable
only after some executed step resolved its blocker, so blocking never
hides schedules; a schedule in which every unfinished program waits on a
lock ends in :class:`~repro.sim.SimDeadlock`.  A program's own exception
(other than an abort) comes out of :meth:`InterleavingExplorer.run_schedule`
after every process has stopped.  Exploration is depth-first over choice
prefixes, which enumerates every schedule exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from repro.analysis.checker import SerializabilityReport, check_history
from repro.analysis.recorder import ExecutionRecorder
from repro.engine.engine import Database, WaitOn
from repro.engine.session import Session, Waiter
from repro.errors import ApplicationRollback, TransactionAborted
from repro.sim.core import SimEvent, Simulator

ProgramBody = Callable[[Session], None]


@dataclass(frozen=True)
class ScriptedProgram:
    """One participant of the exploration scenario."""

    label: str
    body: ProgramBody


@dataclass
class ScheduleOutcome:
    """What one schedule did."""

    choices: tuple[int, ...]
    decision_points: tuple[tuple[int, ...], ...]
    report: SerializabilityReport
    aborted_labels: tuple[str, ...]

    @property
    def serializable(self) -> bool:
        return self.report.serializable


@dataclass
class ExplorationSummary:
    """Aggregate over all explored schedules."""

    schedules: int = 0
    truncated: bool = False
    non_serializable: list[ScheduleOutcome] = field(default_factory=list)
    anomaly_counts: dict[str, int] = field(default_factory=dict)
    schedules_with_aborts: int = 0

    @property
    def all_serializable(self) -> bool:
        return not self.non_serializable

    def describe(self) -> str:
        status = "all serializable" if self.all_serializable else (
            f"{len(self.non_serializable)} non-serializable"
        )
        extra = " (truncated)" if self.truncated else ""
        return f"{self.schedules} schedules explored{extra}: {status}"


class _Schedule:
    """The scheduler of one run: which program steps next, and when.

    A program parks at each gate (or lock wait) on a fresh
    :class:`SimEvent`; when the last one running parks or finishes,
    :meth:`choose` runs in scheduler context and fires one event.
    """

    def __init__(self, sim: Simulator, count: int, choices: Sequence[int]) -> None:
        self.sim = sim
        # running | ready | blocked | done; each runs to its first gate.
        self.states = ["running"] * count
        self.wakeable = [False] * count
        self.events: list[Optional[SimEvent]] = [None] * count
        self.choices = iter(choices)
        self.taken: list[int] = []
        self.decision_points: list[tuple[int, ...]] = []

    def park(self, tid: int, state: str) -> None:
        event = self.events[tid] = SimEvent(self.sim)
        self.settle(tid, state)
        event.wait()

    def settle(self, tid: int, state: str) -> None:
        self.states[tid] = state
        if "running" not in self.states:
            self.sim.schedule(0.0, self.choose)

    def choose(self) -> None:
        """In scheduler context: let the next program step."""
        ready = [
            tid
            for tid, state in enumerate(self.states)
            if state == "ready" or (state == "blocked" and self.wakeable[tid])
        ]
        if not ready:  # all done, or a wedge the simulator reports
            return
        self.decision_points.append(tuple(ready))
        pick = next(self.choices, None)  # one forced choice per decision
        if pick not in ready:
            pick = ready[0]
        self.taken.append(pick)
        self.wakeable[pick] = False
        self.states[pick] = "running"
        self.events[pick].fire()


@dataclass
class _ScheduledWaiter(Waiter):
    """Session waiter that parks a lock wait until a step resolves it."""

    schedule: _Schedule
    tid: int

    def wait_any(self, wait: WaitOn, timeout=None) -> bool:
        for blocker in wait.blockers:
            blocker.add_resolution_callback(self._wake)
        self.schedule.park(self.tid, "blocked")
        return True

    def _wake(self, _txn) -> None:
        self.schedule.wakeable[self.tid] = True


#: Statement kinds that are scheduling points by default.  Plain reads are
#: excluded on purpose: under SI every read comes from the begin-time
#: snapshot and never blocks, so its position within the transaction is
#: irrelevant to the outcome — a sound partial-order reduction that keeps
#: the schedule space exhaustive-friendly.  (``begin`` and flushing commits
#: are always gated; pass ``gate_kinds`` including "select"/"scan" for full
#: granularity, e.g. when exploring read-locking engines in fine detail.)
DEFAULT_GATE_KINDS = frozenset(
    {
        "update",
        "identity-update",
        "materialize-update",
        "insert",
        "delete",
        "select-for-update",
    }
)


class InterleavingExplorer:
    """Explore every interleaving of a scenario (up to ``max_schedules``)."""

    def __init__(
        self,
        make_db: Callable[[], Database],
        programs: Sequence[ScriptedProgram],
        *,
        max_schedules: int = 20_000,
        gate_kinds: frozenset[str] = DEFAULT_GATE_KINDS,
    ) -> None:
        if not programs:
            raise ValueError("need at least one program to explore")
        self.make_db = make_db
        self.programs = tuple(programs)
        self.max_schedules = max_schedules
        self.gate_kinds = frozenset(gate_kinds)

    # ------------------------------------------------------------------
    def run_schedule(self, choices: Sequence[int]) -> ScheduleOutcome:
        """Execute one schedule (fresh database) and analyze it."""
        db = self.make_db()
        recorder = ExecutionRecorder().attach(db)
        sim = Simulator()
        schedule = _Schedule(sim, len(self.programs), choices)
        aborted: list[str] = []

        def program_process(tid: int, program: ScriptedProgram) -> None:
            def gate(_txn=None) -> None:
                schedule.park(tid, "ready")

            def statement_gate(kind: str, txn) -> None:
                if kind in self.gate_kinds:
                    gate()

            session = Session(
                db,
                waiter=_ScheduledWaiter(schedule, tid),
                statement_hook=statement_gate,
                pre_commit_hook=gate,
            )
            try:
                gate()  # schedule the begin (snapshot point)
                session.begin(program.label)
                program.body(session)
                session.commit()
            except (TransactionAborted, ApplicationRollback):
                session.rollback()
                aborted.append(program.label)
            schedule.settle(tid, "done")

        for tid, program in enumerate(self.programs):
            sim.spawn(partial(program_process, tid, program), name=program.label)
        try:
            sim.run_until(0.0)
        finally:
            sim.shutdown()
        return ScheduleOutcome(
            choices=tuple(schedule.taken),
            decision_points=tuple(schedule.decision_points),
            report=check_history(recorder.committed),
            aborted_labels=tuple(sorted(aborted)),
        )

    def explore(self) -> ExplorationSummary:
        """Depth-first enumeration of all schedules."""
        summary = ExplorationSummary()
        stack: list[tuple[int, ...]] = [()]
        while stack:
            if summary.schedules >= self.max_schedules:
                summary.truncated = True
                break
            prefix = stack.pop()
            outcome = self.run_schedule(prefix)
            summary.schedules += 1
            if outcome.aborted_labels:
                summary.schedules_with_aborts += 1
            if not outcome.serializable:
                summary.non_serializable.append(outcome)
                for label in outcome.report.anomalies:
                    summary.anomaly_counts[label] = (
                        summary.anomaly_counts.get(label, 0) + 1
                    )
            # Children: alternative decisions beyond the forced prefix.
            for index in range(len(prefix), len(outcome.decision_points)):
                for alternative in outcome.decision_points[index]:
                    if alternative != outcome.choices[index]:
                        stack.append(
                            outcome.choices[:index] + (alternative,)
                        )
        return summary
