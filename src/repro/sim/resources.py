"""Simulated hardware resources: CPU and the group-commit log disk.

Two resources carry the paper's entire performance story (its Section IV-D
analysis): a CPU that saturates — producing the throughput plateau — and a
WAL disk whose forced flush every *update* transaction must wait for —
producing the 20 % MPL-1 penalty of strategies that turn the read-only
Balance program into an updater.  A charge is one :meth:`Resource.use`
frame, which moves the clock in place when it can (:mod:`repro.sim.core`).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappush
from typing import TYPE_CHECKING

from repro.sim.core import SimStopped, Simulator, _Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan


class Resource:
    """A server pool (e.g. the CPU: ``capacity=1`` for the paper's
    single-core Pentium IV).  Waiters queue in arrival order, but a release
    only *offers* the server to the head waiter, one event later: if the
    releaser (or anyone earlier at that instant) has re-taken it by then,
    the waiter goes to the *back* of the queue.  The calibration in DESIGN
    §4 was made with this barging, so it is part of the model.  ``use``
    reserves that offer and refuses it at once if it re-takes the server
    before anything could run: the same queue order, with no event."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "res") -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: deque[_Process] = deque()
        # Busy integral: each hold adds its release time less its acquire
        # time, so a hold in progress counts ``-acquired`` until released.
        self._busy_time = 0.0

    # ------------------------------------------------------------------
    def acquire(self) -> None:
        if self.in_use >= self.capacity:
            process = self.sim._require_current()
            self._queue.append(process)
            self.sim._suspend(process)  # until _offer finds a server free
        self._busy_time -= self.sim.now
        self.in_use += 1

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        sim = self.sim
        self._busy_time += sim.now
        self.in_use -= 1
        if self._queue:  # ``sim.schedule(0.0, offer)``
            offer = partial(self._offer, self._queue.popleft())
            heappush(sim._heap, (sim.now, next(sim._seq), offer))

    def _offer(self, process: _Process) -> _Process | None:
        """(Scheduler context) activate ``process`` if a server is still
        free, else re-queue it -- without its thread ever waking."""
        if self.in_use >= self.capacity:
            self._queue.append(process)
            return None
        return process

    def use(self, duration: float) -> None:
        """Hold one server for ``duration``: ``acquire``, ``Simulator.sleep``
        and ``release`` (same checks, events and accounting) in one frame."""
        sim = self.sim
        process = sim._current or sim._require_current()
        if duration < 0:
            raise ValueError("cannot schedule into the past")
        heap = sim._heap
        if self.in_use >= self.capacity:
            self.acquire()  # queues
        else:
            offer = sim._offer
            if (offer is not None and offer[2] is self and self.in_use + 1 == self.capacity
                    and not (heap and heap[0] < offer)):
                # Re-taken before the offer runs: ``_offer`` would refuse it.
                self._queue.append(offer[3])
                sim._offer = None
            self._busy_time -= sim.now
            self.in_use += 1
        try:
            wake = sim.now + duration
            if sim._offer is None and wake <= sim._deadline and not (heap and heap[0][0] <= wake):
                sim.now = wake  # nothing can run first: no pass
            else:
                heappush(heap, (wake, next(sim._seq), process))
                process.waiting = True
                sim._pass_baton(process)
                if sim.stopping:
                    raise SimStopped()
        finally:
            self._busy_time += sim.now
            self.in_use -= 1
            if self._queue:  # reserve its offer; the try block left none pending
                sim._offer = (sim.now, next(sim._seq), self, self._queue.popleft())

    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Average busy fraction since t=0 (per server)."""
        now = self.sim.now
        if now <= 0:
            return 0.0
        busy = self._busy_time + self.in_use * now
        return min(1.0, busy / (now * self.capacity))


class GroupCommitLog:
    """The WAL disk with group commit.

    A committing transaction calls :meth:`commit_flush` and is released
    once a flush covering its record hits the platter.  While the disk is
    idle, the first request opens a *gather window* of ``commit_delay``
    (the paper: "We configured commit-delay ..., thus taking advantage of
    group commit"); everything arriving within the window — or during the
    ``flush_time`` of the previous flush — rides the next flush together.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        flush_time: float,
        commit_delay: float = 0.0,
        faults: "FaultPlan | None" = None,
    ) -> None:
        if flush_time <= 0:
            raise ValueError("flush_time must be positive")
        self.sim = sim
        self.flush_time = flush_time
        self.commit_delay = commit_delay
        self.faults = faults
        self._pending: list[_Process] = []  # parked until their flush lands
        self._active = False  # a gather window or flush is in progress
        self.flush_count = 0
        self.commits_flushed = 0
        self.stall_count = 0
        self.stall_time = 0.0

    # ------------------------------------------------------------------
    def commit_flush(self) -> None:
        """(Process) wait until this commit's log record is durable."""
        sim = self.sim
        process = sim._current or sim._require_current()
        self._pending.append(process)
        if not self._active:
            self._active = True
            sim.schedule(self.commit_delay, self._start_flush)
        sim._suspend(process)

    # -- scheduler-context machinery ------------------------------------
    def _start_flush(self) -> None:
        batch, self._pending = self._pending, []
        if not batch:
            self._active = False
            return
        self.flush_count += 1
        self.commits_flushed += len(batch)
        flush_time = self.flush_time
        if self.faults is not None and self.faults.should_fire("wal-stall"):
            # A disk hiccup: this flush (and every commit riding it) takes
            # ``magnitude`` extra seconds while row locks stay held.
            stall = self.faults.magnitude("wal-stall")
            flush_time += stall
            self.stall_count += 1
            self.stall_time += stall
        self.sim.schedule(flush_time, partial(self._finish_flush, batch))

    def _finish_flush(self, batch: list[_Process]) -> None:
        sim = self.sim
        for process in batch:  # ``sim.schedule(0.0, process)`` each
            heappush(sim._heap, (sim.now, next(sim._seq), process))
        if self._pending:
            # Commits queued during the flush form the next batch at once:
            # under load the disk streams back-to-back group flushes.
            self._start_flush()
        else:
            self._active = False

    @property
    def mean_batch_size(self) -> float:
        if self.flush_count == 0:
            return 0.0
        return self.commits_flushed / self.flush_count
