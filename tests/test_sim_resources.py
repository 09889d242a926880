"""Tests for simulated resources: server pools and group-commit log."""

from __future__ import annotations

import pytest

from repro.sim.core import SimEvent, SimStopped, Simulator
from repro.sim.resources import GroupCommitLog, Resource
from tests.test_sim_core import traced


class TestResource:
    def test_single_server_serializes_users(self):
        sim = Simulator()
        cpu = Resource(sim, capacity=1)
        trace: list[tuple[str, float]] = []

        def user(name: str):
            def proc():
                cpu.use(1.0)
                trace.append((name, sim.now))

            return proc

        sim.spawn(user("a"))
        sim.spawn(user("b"))
        sim.spawn(user("c"))
        sim.run_for(10.0)
        sim.shutdown()
        assert trace == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_two_servers_run_in_parallel(self):
        sim = Simulator()
        cpu = Resource(sim, capacity=2)
        done: list[float] = []

        def user():
            cpu.use(1.0)
            done.append(sim.now)

        for _ in range(4):
            sim.spawn(user)
        sim.run_for(10.0)
        sim.shutdown()
        assert done == [1.0, 1.0, 2.0, 2.0]

    def test_fifo_ordering(self):
        sim = Simulator()
        cpu = Resource(sim, capacity=1)
        order: list[str] = []

        def user(name: str, arrive: float):
            def proc():
                sim.sleep(arrive)
                cpu.use(2.0)
                order.append(name)

            return proc

        sim.spawn(user("late", 1.0))
        sim.spawn(user("early", 0.5))
        sim.spawn(user("first", 0.0))
        sim.run_for(20.0)
        sim.shutdown()
        assert order == ["first", "early", "late"]

    def test_releaser_that_reacquires_keeps_the_server(self):
        """The real discipline is not FIFO: a release *offers* the server
        to the head waiter one event later, and a waiter that finds it
        re-taken goes behind whoever arrived meanwhile."""
        sim = Simulator()
        cpu = Resource(sim, capacity=1)
        done: list[tuple[str, float]] = []

        def hog():
            for _ in range(2):  # releases and re-acquires at t=1
                cpu.use(1.0)
                done.append(("hog", sim.now))

        def user(name: str, arrive: float):
            def proc():
                sim.sleep(arrive)
                cpu.use(1.0)
                done.append((name, sim.now))

            return proc

        sim.spawn(hog)
        sim.spawn(user("queued", 0.2))
        # Wakes at t=1 after the hog (spawned later) but before the offer
        # the hog's release schedules for ``queued``.
        sim.spawn(user("late", 1.0))
        sim.run_for(10.0)
        sim.shutdown()
        assert done == [
            ("hog", 1.0), ("hog", 2.0), ("late", 3.0), ("queued", 4.0),
        ]

    def test_utilization_accounting(self):
        sim = Simulator()
        cpu = Resource(sim, capacity=1)

        def user():
            cpu.use(2.0)

        sim.spawn(user)
        sim.run_for(4.0)
        sim.shutdown()
        assert cpu.utilization() == pytest.approx(0.5)

    def test_shutdown_in_the_middle_of_use_frees_the_server(self):
        sim = Simulator()
        cpu = Resource(sim, capacity=1)
        stopped: list[tuple[str, float]] = []

        def user(name: str):
            def proc():
                try:
                    cpu.use(10.0)
                except SimStopped:
                    stopped.append((name, sim.now))
                    raise

            return proc

        sim.spawn(user("holder"))
        sim.spawn(user("queued"))
        sim.run_for(2.0)
        assert cpu.in_use == 1
        sim.shutdown()
        assert stopped == [("holder", 2.0), ("queued", 2.0)]
        assert cpu.in_use == 0
        # Busy over [0, 2], when the stop freed the server; idle after.
        sim.run_for(2.0)
        assert cpu.utilization() == pytest.approx(0.5)

    def test_invalid_capacity_and_release(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)
        cpu = Resource(sim, capacity=1)
        with pytest.raises(RuntimeError):
            cpu.release()


class TestTieOrder:
    """A charge that nothing can overtake moves the clock in place, and a
    release's offer that its releaser's next charge would see refused is
    refused in place; everywhere else the heap decides, with the offer's
    reserved sequence number.  The literals are the traces of the
    simulator that pushed every charge and every offer."""

    def test_an_event_due_at_the_release_runs_before_the_offer(self):
        def build(sim, mark):
            cpu = Resource(sim)

            def hog():
                for _ in range(2):  # re-takes at 1.0, after ``late`` queued
                    cpu.use(1.0)
                    mark("hog")

            def user(name, arrive):
                def proc():
                    sim.sleep(arrive)
                    mark(f"{name} arrives")
                    cpu.use(1.0)
                    mark(name)

                return proc

            sim.spawn(hog)
            sim.spawn(user("queued", 0.2))
            sim.spawn(user("late", 1.0))  # due at 1.0 before the offer
            sim.schedule(1.0, lambda: mark("callback"))

        assert traced(build, 10.0) == [(10.0, [
            (0.2, "queued arrives"), (1.0, "callback"), (1.0, "hog"),
            (1.0, "late arrives"), (2.0, "hog"), (3.0, "late"), (4.0, "queued"),
        ])]

    def test_a_charge_ending_at_the_heap_tops_time_goes_through_the_heap(self):
        def build(sim, mark):
            cpu = Resource(sim)

            def sleeper():
                sim.sleep(1.0)
                mark("sleeper")

            def charger():  # spawned last: its charge ends at the top's time
                cpu.use(1.0)
                mark("charger")

            sim.spawn(sleeper)
            sim.spawn(charger)

        assert traced(build, 10.0) == [(10.0, [(1.0, "sleeper"), (1.0, "charger")])]

    def test_a_charge_past_the_deadline_returns_the_baton(self):
        def build(sim, mark):
            cpu = Resource(sim)

            def proc():
                for _ in range(3):
                    cpu.use(0.6)
                    mark("charged")

            sim.spawn(proc)

        assert traced(build, 1.0, 2.0) == [
            (1.0, [(0.6, "charged")]),
            (2.0, [(0.6, "charged"), (1.2, "charged"), (1.7999999999999998, "charged")]),
        ]

    def test_an_offer_before_a_sleep_keeps_its_reserved_number(self):
        def build(sim, mark):
            cpu, event = Resource(sim), SimEvent(sim)

            def hog():
                cpu.use(1.0)
                mark("hog released")
                event.fire()  # wakes ``waiter`` at 1.0, after the offer
                sim.sleep(0.5)
                mark("hog slept")

            def queued():
                sim.sleep(0.2)
                cpu.acquire()
                mark("queued acquired")
                cpu.release()

            def waiter():
                event.wait()
                mark("waiter")

            sim.spawn(hog)
            sim.spawn(queued)
            sim.spawn(waiter)

        assert traced(build, 10.0) == [(10.0, [
            (1.0, "hog released"), (1.0, "queued acquired"),
            (1.0, "waiter"), (1.5, "hog slept"),
        ])]

    def test_a_pending_offer_stops_the_clock_moving_in_place(self):
        def build(sim, mark):
            cpu, disk = Resource(sim, name="cpu"), Resource(sim, name="disk")

            def hog():
                cpu.use(1.0)
                mark("hog released")
                sim.sleep(0.5)
                mark("hog slept")
                cpu.use(1.0)
                mark("hog released again")
                disk.use(0.5)  # another resource's charge refuses nothing
                mark("hog used the disk")

            def queued():
                for pause in (0.2, 1.3):  # queues behind each of hog's charges
                    sim.sleep(pause)
                    cpu.acquire()
                    mark("queued acquired")
                    cpu.release()

            sim.spawn(hog)
            sim.spawn(queued)

        assert traced(build, 10.0) == [(10.0, [
            (1.0, "hog released"), (1.0, "queued acquired"), (1.5, "hog slept"),
            (2.5, "hog released again"), (2.5, "queued acquired"),
            (3.0, "hog used the disk"),
        ])]

    def test_two_servers_with_standalone_acquire_and_release(self):
        def build(sim, mark):
            cpu = Resource(sim, capacity=2)

            def holder():
                cpu.acquire()
                mark("holder acquired")
                cpu.use(1.0)  # holds both servers
                mark("holder used")
                cpu.release()
                mark("holder released")
                cpu.use(0.5)
                mark("holder used again")

            def looper():
                for _ in range(3):
                    cpu.use(0.75)
                    mark("looper")

            def waiter(name, arrive):
                def proc():
                    sim.sleep(arrive)
                    cpu.use(0.25)
                    mark(name)

                return proc

            sim.spawn(holder)
            sim.spawn(looper)
            for name, arrive in (("w1", 0.1), ("w2", 0.2), ("w3", 0.9)):
                sim.spawn(waiter(name, arrive))

        assert traced(build, 10.0) == [(10.0, [
            (0.0, "holder acquired"), (1.0, "holder used"), (1.0, "holder released"),
            (1.5, "holder used again"), (1.75, "looper"), (1.75, "w2"),
            (2.0, "w3"), (2.25, "w1"), (2.5, "looper"), (3.25, "looper"),
        ])]


class TestGroupCommitLog:
    def test_single_commit_waits_delay_plus_flush(self):
        sim = Simulator()
        wal = GroupCommitLog(sim, flush_time=0.010, commit_delay=0.002)
        done: list[float] = []

        def committer():
            wal.commit_flush()
            done.append(sim.now)

        sim.spawn(committer)
        sim.run_for(1.0)
        sim.shutdown()
        assert done == [pytest.approx(0.012)]
        assert wal.flush_count == 1

    def test_commits_within_window_share_a_flush(self):
        sim = Simulator()
        wal = GroupCommitLog(sim, flush_time=0.010, commit_delay=0.002)
        done: list[float] = []

        def committer(offset: float):
            def proc():
                sim.sleep(offset)
                wal.commit_flush()
                done.append(sim.now)

            return proc

        sim.spawn(committer(0.0))
        sim.spawn(committer(0.001))  # arrives inside the gather window
        sim.run_for(1.0)
        sim.shutdown()
        assert done == [pytest.approx(0.012)] * 2
        assert wal.flush_count == 1
        assert wal.mean_batch_size == 2.0

    def test_commit_during_flush_rides_the_next_one(self):
        sim = Simulator()
        wal = GroupCommitLog(sim, flush_time=0.010, commit_delay=0.002)
        done: list[tuple[str, float]] = []

        def committer(name: str, offset: float):
            def proc():
                sim.sleep(offset)
                wal.commit_flush()
                done.append((name, sim.now))

            return proc

        sim.spawn(committer("first", 0.0))
        sim.spawn(committer("second", 0.005))  # mid-flush of the first
        sim.run_for(1.0)
        sim.shutdown()
        assert done[0] == ("first", pytest.approx(0.012))
        # The second flush starts immediately when the first ends (0.012)
        # and takes another 10 ms.
        assert done[1] == ("second", pytest.approx(0.022))
        assert wal.flush_count == 2

    def test_back_to_back_batches_under_load(self):
        sim = Simulator()
        wal = GroupCommitLog(sim, flush_time=0.010, commit_delay=0.002)
        completions = [0]

        def committer():
            while True:
                sim.checkpoint()
                wal.commit_flush()
                completions[0] += 1

        for _ in range(8):
            sim.spawn(committer)
        sim.run_for(1.0)
        sim.shutdown()
        # Closed-loop committers re-request only after waking, so each
        # cycle is gather-window + flush = 12 ms with all 8 on board.
        assert wal.flush_count == pytest.approx(83, abs=3)
        assert completions[0] == pytest.approx(664, abs=30)
        assert wal.mean_batch_size == pytest.approx(8.0, abs=0.5)

    def test_invalid_flush_time(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            GroupCommitLog(sim, flush_time=0.0)
