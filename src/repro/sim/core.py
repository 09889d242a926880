"""A deterministic discrete-event simulator with thread-backed processes.

The performance experiments need simulated time (a 3 GHz Pentium IV with
IDE disks cannot be timed faithfully from Python wall-clock), but the
transaction programs are plain Python functions that cannot be suspended
like generators.  The classic resolution: every simulated *process* runs
on its own OS thread, and exactly one thread at a time holds the *baton*.
Because only the baton holder ever executes simulation code, the result
is fully deterministic — event order is a pure function of the event
heap, keyed ``(time, sequence)`` — while process code stays ordinary
imperative Python (the same SmallBank bodies the correctness tests run).

There is no scheduler thread.  Whoever gives the baton up — a suspending
or finishing process, or the main thread inside :meth:`run_until` — pops
the heap itself and runs scheduler-context actions inline until an event
activates a process.  If that process is the caller it simply returns (no
thread switch); otherwise it releases the target's latch and parks on its
own (a latch is a plain lock used as a binary semaphore).  The release
wakes the target while the releaser still holds the GIL, so a target that
preempts its waker finds the GIL taken and sleeps again: on one CPU a pass
cost 3.26 context switches.  Process threads therefore run under Linux
``SCHED_BATCH``, which does not preempt the waker: it runs on to its own
latch wait and drops the GIL first, and a pass is one switch (1.02 on one
CPU; ~1.0 across two CPUs, as before).  The main thread gets the baton
back when the heap is empty, the next event is past the deadline, or
something raised (re-raised from :meth:`run_until`).

The heap holds only what another process could run first.  A sleep or
charge whose wake-up would pop next (heap top strictly later, no offer
pending, within the deadline) moves the clock in place.  A CPU release
with waiters reserves its offer's ``(time, sequence)``; unless refused in
place, :meth:`Simulator._pass_baton` pushes it with that number before
popping.  The event order is the one an all-heap loop would have.

Public surface:

* :meth:`Simulator.spawn` — start a process (runs until it returns or the
  simulation shuts down, at which point blocked processes see
  :class:`SimStopped`);
* :meth:`Simulator.sleep` / :meth:`Simulator.schedule` — time;
* :class:`SimEvent` — one-shot signalling between processes;
* :meth:`Simulator.run_for` — drive the clock, then :meth:`shutdown`.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
from functools import partial
from typing import Callable, Optional

from repro.errors import ReproError


class SimStopped(ReproError):
    """Raised inside a process when the simulation is shutting down."""


class SimDeadlock(ReproError):
    """No runnable events remain but processes are still blocked."""


class _Process:
    __slots__ = ("name", "thread", "latch", "alive", "waiting")

    def __init__(self, name: str) -> None:
        self.name = name
        self.thread: Optional[threading.Thread] = None
        # A binary semaphore at zero: ``release`` wakes, ``acquire`` parks.
        self.latch = threading.Lock()
        self.latch.acquire()
        self.alive = True
        # True while blocked on an event/sleep (including the pre-start
        # wait); guards against double activation.
        self.waiting = True


class Simulator:
    """The event loop.  Not reentrant; one simulation per instance."""

    _JOIN_TIMEOUT = 30.0

    def __init__(self) -> None:
        self.now = 0.0
        # (time, seq, item): a _Process to activate if it still waits, or
        # an action to call in scheduler context, which may return one.
        self._heap: list[tuple[float, int, object]] = []
        self._seq = itertools.count()
        self._main = _Process("main")  # the main thread: only its latch
        self._deadline = float("-inf")
        self._error: Optional[BaseException] = None
        self._processes: list[_Process] = []
        self._current: Optional[_Process] = None
        # (time, seq, resource, process): a reserved offer (module doc).
        self._offer: Optional[tuple] = None
        self.stopping = False

    # ------------------------------------------------------------------
    # Scheduling primitives (callable from scheduler context or the one
    # running process -- never from arbitrary threads)
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, action: Callable[[], object] | _Process
    ) -> None:
        """Run ``action`` (in scheduler context) after ``delay``; given a
        process instead, or one as the result, activate it if it waits."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), action))

    def spawn(self, fn: Callable[[], None], name: str = "proc") -> None:
        """Create a process; it starts at the current simulation time."""
        process = _Process(name)
        self._processes.append(process)

        def body() -> None:
            try:  # a batch thread does not preempt its waker: see module doc
                os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
            except (AttributeError, OSError):
                pass
            process.latch.acquire()  # wait for first activation
            try:
                if self.stopping:
                    raise SimStopped()
                fn()
            except SimStopped:
                pass
            except BaseException as exc:
                self._fail(exc)
            finally:
                process.alive = False
                self._pass_baton(process)

        process.thread = threading.Thread(
            target=body, name=f"sim-{name}", daemon=True
        )
        process.thread.start()
        self.schedule(0.0, process)

    # ------------------------------------------------------------------
    # Process-side operations
    # ------------------------------------------------------------------
    def sleep(self, duration: float) -> None:
        """Suspend the calling process for ``duration`` simulated seconds."""
        process = self._current or self._require_current()
        if duration < 0:
            raise ValueError("cannot schedule into the past")
        heap, wake = self._heap, self.now + duration
        if self._offer is None and wake <= self._deadline and not (heap and heap[0][0] <= wake):
            self.now = wake  # its own wake-up would pop next: no pass
            return
        heapq.heappush(heap, (wake, next(self._seq), process))
        process.waiting = True
        self._pass_baton(process)
        if self.stopping:
            raise SimStopped()

    def checkpoint(self) -> None:
        """Raise :class:`SimStopped` if the simulation is shutting down."""
        if self.stopping:
            raise SimStopped()

    def _require_current(self) -> _Process:
        process = self._current
        if process is None:
            raise ReproError(
                "simulation primitive called outside a simulated process"
            )
        return process

    def _suspend(self, process: _Process) -> None:
        """Give the baton up until re-activated."""
        process.waiting = True
        self._pass_baton(process)
        if self.stopping:
            raise SimStopped()

    # ------------------------------------------------------------------
    # The baton
    # ------------------------------------------------------------------
    def _fail(self, exc: BaseException) -> None:
        """Store ``exc`` for :meth:`run_until` and stop the clock, so the
        baton goes straight back to the main thread."""
        self._error = self._error or exc
        self._deadline = float("-inf")

    def _pass_baton(self, me: Optional[_Process]) -> None:
        """Called by the baton holder (``None``: the main thread).  Pops due
        events, running actions inline, up to the first that activates a
        process, and hands over to it (to the main thread if there is
        none).  Returns once ``me`` holds the baton again: at once if that
        process is ``me``, never if ``me`` has finished."""
        heap = self._heap
        if self._offer is not None:  # reserved, so it sorts where it was due
            time, seq, resource, process = self._offer
            heapq.heappush(heap, (time, seq, partial(resource._offer, process)))
            self._offer = None
        target = self._current = None  # scheduler context: no primitives
        try:
            while heap and heap[0][0] <= self._deadline:
                self.now, _seq, item = heapq.heappop(heap)
                process = item if type(item) is _Process else item()
                if type(process) is _Process and process.alive and process.waiting:
                    process.waiting = False
                    target = self._current = process
                    break
        except BaseException as exc:
            self._fail(exc)
        if target is not me:
            (target or self._main).latch.release()
            if me is None or me.alive:
                (me or self._main).latch.acquire()

    # ------------------------------------------------------------------
    # Driving the clock
    # ------------------------------------------------------------------
    def run_until(self, deadline: float) -> None:
        """Process events up to and including ``deadline``; re-raise what
        an action or a process raised meanwhile."""
        self._deadline = deadline
        self._pass_baton(None)
        self._raise_stored()
        self.now = max(self.now, deadline)
        if not self._heap and any(
            p.alive and p.waiting for p in self._processes
        ) and not self.stopping:
            # Nothing scheduled, yet processes wait: nobody can ever wake
            # them.  Indicates a lost wake-up bug in a resource model.
            blocked = [p.name for p in self._processes if p.alive and p.waiting]
            raise SimDeadlock(f"all events drained; blocked: {blocked}")

    def run_for(self, duration: float) -> None:
        self.run_until(self.now + duration)

    def _raise_stored(self) -> None:
        error, self._error = self._error, None
        if error is not None:
            raise error

    def shutdown(self) -> None:
        """Stop every process (they see :class:`SimStopped`) and join."""
        self.stopping = True
        self._deadline = float("-inf")  # every baton comes straight back
        for process in self._processes:
            if process.alive and process.waiting:
                process.waiting = False
                self._current = process
                process.latch.release()
                self._main.latch.acquire()
        for process in self._processes:
            if process.thread is not None:
                process.thread.join(timeout=self._JOIN_TIMEOUT)
                if process.thread.is_alive():  # pragma: no cover
                    raise ReproError(
                        f"simulated process {process.name!r} failed to stop"
                    )
        self._raise_stored()


class SimEvent:
    """A one-shot event: processes wait, somebody fires.

    ``fire`` may be called from scheduler context or from the currently
    running process (e.g. an engine resolution callback); multiple calls
    are harmless.
    """

    __slots__ = ("sim", "fired", "_waiters")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.fired = False
        self._waiters: list[_Process] = []

    def wait(self) -> None:
        process = self.sim._require_current()
        if self.fired:
            return
        self._waiters.append(process)
        self.sim._suspend(process)

    def fire(self) -> None:
        if self.fired:
            return
        self.fired = True
        waiters, self._waiters = self._waiters, []
        sim = self.sim
        for process in waiters:  # ``sim.schedule(0.0, process)`` each
            heapq.heappush(sim._heap, (sim.now, next(sim._seq), process))
