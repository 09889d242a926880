"""Tests for the discrete-event simulator core."""

from __future__ import annotations

import json
import os
import threading
from typing import Optional

import pytest

from benchmarks.bench_scaling import MAX_SWITCHES_PER_PASS, handoff
from repro.sim.core import SimDeadlock, SimEvent, Simulator


def batch_refusal() -> Optional[str]:
    """Why a thread here cannot be put under ``SCHED_BATCH``; ``None``
    when it can (probed on a throwaway thread)."""
    if not hasattr(os, "SCHED_BATCH"):
        return "os.SCHED_BATCH is absent on this platform"
    refusals: list[str] = []

    def probe() -> None:
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except OSError as exc:
            refusals.append(f"sched_setscheduler(SCHED_BATCH) refused: {exc}")

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return refusals[0] if refusals else None


class TestScheduling:
    def test_callbacks_run_in_time_order(self):
        sim = Simulator()
        log: list[tuple[float, str]] = []
        sim.schedule(2.0, lambda: log.append((sim.now, "b")))
        sim.schedule(1.0, lambda: log.append((sim.now, "a")))
        sim.schedule(3.0, lambda: log.append((sim.now, "c")))
        sim.run_for(10.0)
        assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]
        assert sim.now == 10.0

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        log: list[str] = []
        sim.schedule(1.0, lambda: log.append("first"))
        sim.schedule(1.0, lambda: log.append("second"))
        sim.run_for(2.0)
        assert log == ["first", "second"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_deadline_excludes_later_events(self):
        sim = Simulator()
        log: list[str] = []
        sim.schedule(5.0, lambda: log.append("late"))
        sim.run_for(3.0)
        assert log == []
        sim.run_for(3.0)
        assert log == ["late"]


class TestProcesses:
    def test_process_sleep_advances_with_clock(self):
        sim = Simulator()
        trace: list[float] = []

        def proc():
            trace.append(sim.now)
            sim.sleep(1.5)
            trace.append(sim.now)
            sim.sleep(0.5)
            trace.append(sim.now)

        sim.spawn(proc)
        sim.run_for(10.0)
        sim.shutdown()
        assert trace == [0.0, 1.5, 2.0]

    def test_two_processes_interleave_deterministically(self):
        sim = Simulator()
        trace: list[str] = []

        def make(name: str, period: float):
            def proc():
                for _ in range(3):
                    sim.sleep(period)
                    trace.append(f"{name}@{sim.now}")

            return proc

        sim.spawn(make("a", 1.0))
        sim.spawn(make("b", 1.5))
        sim.run_for(10.0)
        sim.shutdown()
        # At t=3.0 both wake; b's wake event was scheduled earlier
        # (at t=1.5 vs t=2.0), so the (time, sequence) order runs b first.
        assert trace == [
            "a@1.0", "b@1.5", "a@2.0", "b@3.0", "a@3.0", "b@4.5",
        ]

    def test_infinite_process_stopped_by_shutdown(self):
        sim = Simulator()
        counter = [0]

        def forever():
            while True:
                sim.checkpoint()
                sim.sleep(0.1)
                counter[0] += 1

        sim.spawn(forever)
        sim.run_for(1.05)
        sim.shutdown()
        assert counter[0] == 10

    def test_spawn_during_run(self):
        sim = Simulator()
        trace: list[float] = []

        def child():
            trace.append(sim.now)

        def parent():
            sim.sleep(2.0)
            sim.spawn(child, name="child")

        sim.spawn(parent, name="parent")
        sim.run_for(5.0)
        sim.shutdown()
        assert trace == [2.0]

    def test_primitive_outside_process_rejected(self):
        sim = Simulator()
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            sim.sleep(1.0)


class TestBaton:
    """Who runs the event loop: whichever thread gives the baton up."""

    def test_lone_sleeper_never_leaves_its_thread(self):
        sim = Simulator()
        sleeper: list[int] = []
        ran_on: set[int] = set()

        def proc():
            sleeper.append(threading.get_ident())
            for _ in range(5):
                sim.schedule(0.5, lambda: ran_on.add(threading.get_ident()))
                sim.sleep(1.0)

        sim.spawn(proc)
        sim.run_for(10.0)
        sim.shutdown()
        # Every action between two of its wake-ups ran inline on the
        # sleeper's own thread: it popped its own wake-up each time.
        assert ran_on == set(sleeper)
        assert sleeper != [threading.get_ident()]

    def test_finishing_process_hands_the_baton_on(self):
        sim = Simulator()
        trace: list[tuple[str, float]] = []
        threads: dict[str, int] = {}

        def short():
            threads["short"] = threading.get_ident()
            sim.sleep(1.0)

        def long():
            sim.sleep(2.0)
            trace.append(("long", sim.now))

        def action():
            threads["action"] = threading.get_ident()
            trace.append(("action", sim.now))

        sim.spawn(short)
        sim.spawn(long)
        sim.schedule(1.5, action)
        sim.run_for(5.0)
        sim.shutdown()
        assert trace == [("action", 1.5), ("long", 2.0)]
        # ``short`` returned at t=1 and, on its way out, ran the loop up
        # to the event that woke ``long``.
        assert threads["action"] == threads["short"]

    def test_action_error_on_a_process_thread_surfaces_from_run_until(self):
        sim = Simulator()
        ran_on: list[int] = []

        def boom():
            ran_on.append(threading.get_ident())
            raise RuntimeError("boom")

        sim.spawn(lambda: sim.sleep(2.0))
        sim.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run_for(5.0)
        assert ran_on != [threading.get_ident()]  # the sleeper's thread
        assert sim.now == 1.0
        sim.run_for(5.0)  # the error was handed over once; the run resumes
        assert sim.now == 6.0
        sim.shutdown()

    def test_process_error_surfaces_from_run_for(self):
        sim = Simulator()
        ticks = [0]

        def dies():
            sim.sleep(1.0)
            raise ValueError("client bug")

        def lives():
            while True:
                sim.sleep(0.5)
                ticks[0] += 1

        started = threading.active_count()
        sim.spawn(dies)
        sim.spawn(lives)
        with pytest.raises(ValueError, match="client bug"):
            sim.run_for(5.0)
        assert sim.now == 1.0 and ticks[0] == 1
        sim.shutdown()  # the dead process passed the baton on: all join
        assert threading.active_count() == started

    def test_shutdown_with_every_process_parked_joins_all_threads(self):
        sim = Simulator()
        event = SimEvent(sim)
        started = threading.active_count()
        sim.spawn(lambda: sim.sleep(100.0))
        sim.spawn(event.wait)
        sim.spawn(lambda: None)  # never activated: parked before its start
        assert threading.active_count() == started + 3
        sim.run_for(0.0)
        sim.spawn(lambda: None)
        sim.shutdown()
        assert threading.active_count() == started

    def test_a_pass_is_one_context_switch_on_one_cpu(self):
        """A ring of 20 processes x 200 sleeps, pinned to one CPU.  Under
        the default policy the woken thread preempts its waker, finds the
        GIL held and sleeps again: 3.4 switches per pass."""
        refusal = batch_refusal()
        if refusal:
            pytest.skip(refusal)
        point = handoff(20)
        assert point["switches_per_pass"] <= MAX_SWITCHES_PER_PASS, point

    def test_scheduler_context_refuses_process_primitives(self):
        sim = Simulator()
        from repro.errors import ReproError

        sim.spawn(lambda: sim.sleep(2.0))
        # Runs inline on the sleeper's thread, yet is not "in a process".
        sim.schedule(1.0, lambda: sim.sleep(1.0))
        with pytest.raises(ReproError, match="outside a simulated process"):
            sim.run_for(5.0)
        sim.shutdown()


class TestEvents:
    def test_event_wakes_waiter(self):
        sim = Simulator()
        trace: list[str] = []
        event = SimEvent(sim)

        def waiter():
            event.wait()
            trace.append(f"woke@{sim.now}")

        def firer():
            sim.sleep(3.0)
            event.fire()

        sim.spawn(waiter)
        sim.spawn(firer)
        sim.run_for(10.0)
        sim.shutdown()
        assert trace == ["woke@3.0"]

    def test_fired_event_does_not_block(self):
        sim = Simulator()
        event = SimEvent(sim)
        event.fire()
        trace: list[float] = []

        def proc():
            event.wait()
            trace.append(sim.now)

        sim.spawn(proc)
        sim.run_for(1.0)
        sim.shutdown()
        assert trace == [0.0]

    def test_fire_is_idempotent(self):
        sim = Simulator()
        event = SimEvent(sim)
        woken = [0]

        def waiter():
            event.wait()
            woken[0] += 1

        sim.spawn(waiter)
        sim.schedule(1.0, event.fire)
        sim.schedule(1.0, event.fire)
        sim.run_for(5.0)
        sim.shutdown()
        assert woken[0] == 1

    def test_multiple_waiters_all_wake(self):
        sim = Simulator()
        event = SimEvent(sim)
        woken: list[str] = []

        def waiter(name: str):
            def proc():
                event.wait()
                woken.append(name)

            return proc

        for name in ("x", "y", "z"):
            sim.spawn(waiter(name), name=name)
        sim.schedule(2.0, event.fire)
        sim.run_for(5.0)
        sim.shutdown()
        assert woken == ["x", "y", "z"]


class TestDeadlockDetection:
    def test_wedged_simulation_raises(self):
        sim = Simulator()
        event = SimEvent(sim)  # never fired

        def stuck():
            event.wait()

        sim.spawn(stuck)
        with pytest.raises(SimDeadlock):
            sim.run_for(1.0)
        sim.shutdown()

    def test_detected_when_the_last_runnable_process_finishes(self):
        sim = Simulator()
        event = SimEvent(sim)  # never fired

        sim.spawn(event.wait, name="stuck")
        sim.spawn(lambda: sim.sleep(0.5), name="leaves")
        with pytest.raises(SimDeadlock, match="stuck"):
            sim.run_for(1.0)
        sim.shutdown()


def traced(build, *deadlines):
    """Run the processes ``build(sim, mark)`` spawns up to each of
    ``deadlines`` in turn, where ``mark(name)`` records ``(sim.now,
    name)``; return ``(sim.now, trace so far)`` after each."""
    sim, trace, runs = Simulator(), [], []
    build(sim, lambda name: trace.append((sim.now, name)))
    try:
        for deadline in deadlines:
            sim.run_until(deadline)
            runs.append((sim.now, list(trace)))
    finally:
        sim.shutdown()
    return runs


class TestInPlaceAdvance:
    """A sleep whose wake-up would be the next pop moves the clock in
    place; every other one goes through the heap.  The literals are the
    traces of the event-heap-only simulator."""

    def test_a_sleep_ending_at_the_heap_tops_time_goes_through_the_heap(self):
        def build(sim, mark):
            def early():  # its wake-up at 1.0 is pushed first
                sim.sleep(1.0)
                mark("early")

            def late():
                sim.sleep(0.5)
                mark("late")
                sim.sleep(0.5)  # ends at the heap top's time: sorts after it
                mark("late again")

            sim.spawn(early)
            sim.spawn(late)

        assert traced(build, 10.0) == [
            (10.0, [(0.5, "late"), (1.0, "early"), (1.0, "late again")]),
        ]

    def test_a_sleep_past_the_deadline_returns_the_baton(self):
        def build(sim, mark):
            def proc():
                for _ in range(3):
                    sim.sleep(0.6)
                    mark("slept")

            sim.spawn(proc)

        assert traced(build, 1.0, 2.0) == [
            (1.0, [(0.6, "slept")]),
            (2.0, [(0.6, "slept"), (1.2, "slept"), (1.7999999999999998, "slept")]),
        ]


class TestImportClosure:
    def test_the_core_loads_only_the_error_model(self):
        """The interleaving explorer imports ``repro.sim.core``; the
        package's re-exports must not pull the runner's workload,
        SmallBank and observability modules in behind it."""
        from tests.test_server_startup import fresh_interpreter

        loaded = json.loads(
            fresh_interpreter(
                "import json, sys\n"
                "from repro.sim.core import Simulator\n"
                "print(json.dumps(sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'repro')))\n"
            )
        )
        assert len(loaded) <= 5, loaded
