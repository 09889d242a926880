"""Logical timestamps for the MVCC engine.

Snapshot Isolation reasoning only needs a total order over "events of
interest" (transaction starts and commits).  A monotonically increasing
integer counter provides that order; wall-clock time never enters the
engine, which keeps executions deterministic and replayable.
"""

from __future__ import annotations

import itertools


class LogicalClock:
    """Monotonic counter used for start and commit timestamps.

    Timestamps start at 1 so that 0 can serve as a "before everything"
    sentinel (the timestamp of bootstrap data loaded outside any
    transaction).

    A tick is one ``next`` of an ``itertools.count`` (atomic under the
    GIL), so no timestamp is issued twice; :attr:`last` and
    :meth:`peek_next` are exact while one caller at a time ticks, as the
    engine does under its commit mutex, so the clock has no lock.
    """

    BOOTSTRAP_TS = 0

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self._last = 0

    def next(self) -> int:
        """Return the next timestamp (strictly greater than all before)."""
        self._last = issued = next(self._counter)
        return issued

    @property
    def last(self) -> int:
        """The most recently issued timestamp (0 if none issued yet)."""
        return self._last

    def peek_next(self) -> int:
        """The timestamp the next :meth:`next` call will issue.

        Used by the engine's commit protocol to *reserve* a commit
        timestamp: versions are published carrying ``peek_next()`` and only
        become visible once the covering tick is actually issued.  The
        caller must hold the engine's commit mutex so no other tick (a
        begin or another commit) can slip between the peek and the tick.
        """
        return self._last + 1

    def advance_to(self, ts: int) -> None:
        """Ensure future timestamps are strictly greater than ``ts``.

        Used by crash recovery, before the recovered engine serves: after
        replaying a WAL prefix the clock must not reissue any timestamp at
        or below the replayed horizon.
        """
        if ts > self._last:
            self._last = ts
            self._counter = itertools.count(ts + 1)
