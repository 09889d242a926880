"""Bounded interleaving exploration (a tiny stateless model checker).

:class:`InterleavingExplorer` runs a small set of transaction programs
under **every** possible statement-level interleaving (up to a schedule
budget) against a freshly built database per schedule, checking each
committed history with the MVSG analysis.  This is how the test-suite
*proves* statements like "plain SI admits the SmallBank read-only anomaly;
strategy X admits no non-serializable schedule of this scenario" instead
of sampling a few lucky thread timings.

Mechanics: each program runs on its own thread whose session gates before
``begin``, before every statement, and before a flushing commit.  A
controller wakes exactly one gated thread at a time, so execution is a
deterministic function of the *choice sequence* (which thread to step at
each decision point).  Lock waits integrate with the controller: a blocked
thread is resumable only after some executed step resolved its blocker, so
blocking never hides schedules.  Exploration is depth-first over choice
prefixes, which enumerates every schedule exactly once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.analysis.checker import SerializabilityReport, check_history
from repro.analysis.recorder import ExecutionRecorder
from repro.engine.engine import Database, WaitOn
from repro.engine.session import Session, Waiter
from repro.errors import ApplicationRollback, ReproError, TransactionAborted

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


class _Controller:
    """Grants one thread at a time permission to execute one step."""

    _STEP_TIMEOUT = 30.0

    def __init__(self, count: int) -> None:
        self.cond = threading.Condition()
        self.states = ["ready"] * count  # ready | running | blocked | done
        self.wakeable = [False] * count
        self.go = [threading.Event() for _ in range(count)]
        self.failure: Optional[BaseException] = None

    # -- worker side ----------------------------------------------------
    def gate(self, tid: int) -> None:
        with self.cond:
            self.states[tid] = "ready"
            self.cond.notify_all()
        if not self.go[tid].wait(timeout=self._STEP_TIMEOUT):
            raise ReproError(f"explorer thread {tid} starved at gate")
        self.go[tid].clear()

    def block(self, tid: int) -> None:
        with self.cond:
            self.states[tid] = "blocked"
            self.cond.notify_all()
        if not self.go[tid].wait(timeout=self._STEP_TIMEOUT):
            raise ReproError(f"explorer thread {tid} starved while blocked")
        self.go[tid].clear()

    def mark_wakeable(self, tid: int) -> None:
        with self.cond:
            self.wakeable[tid] = True
            self.cond.notify_all()

    def finish(self, tid: int, error: Optional[BaseException] = None) -> None:
        with self.cond:
            self.states[tid] = "done"
            if error is not None and self.failure is None:
                self.failure = error
            self.cond.notify_all()

    # -- scheduler side --------------------------------------------------
    def _settled(self) -> bool:
        return all(state != "running" for state in self.states)

    def runnable(self) -> list[int]:
        return [
            tid
            for tid, state in enumerate(self.states)
            if state == "ready" or (state == "blocked" and self.wakeable[tid])
        ]

    def drive(self, choices: Sequence[int]) -> tuple[list[int], list[tuple[int, ...]]]:
        taken: list[int] = []
        decision_points: list[tuple[int, ...]] = []
        position = 0
        while True:
            with self.cond:
                if not self.cond.wait_for(self._settled, timeout=self._STEP_TIMEOUT):
                    raise ReproError("explorer scheduler timed out")
                if self.failure is not None:
                    raise self.failure
                ready = self.runnable()
                if not ready:
                    if all(state == "done" for state in self.states):
                        return taken, decision_points
                    raise ReproError(
                        f"explorer wedged: states={self.states}"
                    )
                decision_points.append(tuple(ready))
                if position < len(choices) and choices[position] in ready:
                    pick = choices[position]
                else:
                    pick = ready[0]
                position += 1
                taken.append(pick)
                self.wakeable[pick] = False
                self.states[pick] = "running"
            self.go[pick].set()


class _ControlledWaiter(Waiter):
    """Session waiter that routes lock waits through the controller."""

    def __init__(self, controller: _Controller, tid: int) -> None:
        self.controller = controller
        self.tid = tid

    def wait_any(self, wait: WaitOn, timeout=None) -> bool:
        for blocker in wait.blockers:
            blocker.add_resolution_callback(
                lambda _txn: self.controller.mark_wakeable(self.tid)
            )
        self.controller.block(self.tid)
        return True


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
        controller = _Controller(len(self.programs))
        aborted: list[str] = []
        aborted_lock = threading.Lock()

        def worker(tid: int, program: ScriptedProgram) -> None:
            def statement_gate(kind: str, txn) -> None:
                if kind in self.gate_kinds:
                    controller.gate(tid)

            session = Session(
                db,
                waiter=_ControlledWaiter(controller, tid),
                statement_hook=statement_gate,
                pre_commit_hook=lambda txn: controller.gate(tid),
            )
            try:
                controller.gate(tid)  # schedule the begin (snapshot point)
                session.begin(program.label)
                program.body(session)
                session.commit()
                controller.finish(tid)
            except (TransactionAborted, ApplicationRollback):
                session.rollback()
                with aborted_lock:
                    aborted.append(program.label)
                controller.finish(tid)
            except BaseException as exc:  # pragma: no cover - plumbing
                session.rollback()
                controller.finish(tid, exc)

        threads = [
            threading.Thread(target=worker, args=(tid, program), daemon=True)
            for tid, program in enumerate(self.programs)
        ]
        for thread in threads:
            thread.start()
        taken, decision_points = controller.drive(choices)
        for thread in threads:
            thread.join(timeout=30)
        return ScheduleOutcome(
            choices=tuple(taken),
            decision_points=tuple(decision_points),
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
