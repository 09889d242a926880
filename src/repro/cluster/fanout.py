"""Per-shard broadcasts: gather every outcome, in order (DESIGN.md §14.2).

A broadcast costs one round trip, not ``shards × RTT``, when every
request is out before the first reply is awaited.  Either way every
task's outcome — value or exception — is captured positionally and
nothing is raised until the whole broadcast has settled, which is what
2PC needs (all votes must be gathered even when the first one is a NO).

:func:`scatter_gather` is the transaction path (window BEGINs, round 1
of a split program, the 2PC rounds, a statement no single shard owns):
each task is a split-phase ``start_*`` verb of a
:class:`~repro.net.client.NetworkSession`; the caller's own thread sends
them all, then reads the replies in task order, so a round costs no
thread hand-off.

:class:`FanOutPool` is for the connection-level sweeps (heartbeat, ping,
stats, vacuum, the in-doubt scan), whose tasks dial, redial and time out
on their own (``NetworkConnection._call_once``) and cannot be split: a
small bounded thread pool.  Worker threads spend their lives blocked on
socket reads — which releases the GIL — so N in-flight RPCs really do
overlap across N shard processes.  Calls run **inline-first**: the
caller's own thread executes the first task while the pool runs the
rest, so a single-shard broadcast never pays a thread hand-off at all.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability


class Outcome(NamedTuple):
    """What one fan-out task produced: a value or an exception."""

    value: Any
    error: Optional[BaseException]

    @property
    def ok(self) -> bool:
        return self.error is None


def first_error(outcomes: "Sequence[Outcome]") -> Optional[BaseException]:
    """The first (in task order) exception among ``outcomes``, if any.

    Task order is shard order everywhere the router broadcasts, so the
    raised error is deterministic even though completion order is not.
    """
    for outcome in outcomes:
        if outcome.error is not None:
            return outcome.error
    return None


def _invoke(task: "Callable[[], Any]") -> Outcome:
    try:
        return Outcome(task(), None)
    except BaseException as exc:  # gathered, re-raised by callers
        return Outcome(None, exc)


class FanOutPool:
    """Bounded executor for per-shard RPC broadcasts.

    One pool per :class:`~repro.cluster.ClusterConnection`, shared by all
    of its sessions and background threads.  ``max_workers`` bounds the
    *total* thread-hand-off concurrency; per-shard socket concurrency is
    already bounded by each :class:`~repro.net.NetworkConnection`'s wire
    pool, so one shared executor is enough.  Tasks must not themselves
    call back into the pool (broadcasts never nest in the router).
    """

    def __init__(
        self,
        max_workers: int,
        *,
        name: str = "cluster",
        obs: "Observability | None" = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.obs = obs
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._name = name
        self._closed = False

    def _ensure_executor(self) -> Optional[ThreadPoolExecutor]:
        # Lazily created so a cluster connection that never broadcasts to
        # more than one shard (the 1-shard cluster) spawns zero threads.
        # After shutdown() this returns None and run() degrades to the
        # serial loop: a background sweep that outlives close()'s join
        # timeout must finish quietly, not die on a dead executor.
        with self._lock:
            if self._closed:
                return None
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=f"repro-fanout-{self._name}",
                )
            return self._executor

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: "Sequence[Callable[[], Any]]",
        *,
        op: str = "broadcast",
    ) -> "list[Outcome]":
        """Run every task, inline-first, and gather all outcomes in order.

        The caller's thread executes ``tasks[0]`` while the pool runs the
        rest; with zero or one task no pool thread is touched.  Returns
        one :class:`Outcome` per task, positionally — exceptions are
        captured, never raised from here.
        """
        if not tasks:
            return []
        if len(tasks) == 1:
            return [_invoke(tasks[0])]
        executor = self._ensure_executor()
        if executor is None:  # closed: serial fallback, same semantics
            return [_invoke(task) for task in tasks]
        # A concurrent shutdown() can reject submits (RuntimeError) or
        # cancel queued futures; both fall back to inline execution so
        # the gather contract — one Outcome per task, in order — holds.
        futures = []
        try:
            for task in tasks[1:]:
                futures.append((executor.submit(_invoke, task), task))
        except RuntimeError:
            pending = tasks[1 + len(futures) :]
        else:
            pending = ()
        outcomes = [_invoke(tasks[0])]
        for future, task in futures:
            try:
                outcomes.append(future.result())
            except CancelledError:  # never started; run it here
                outcomes.append(_invoke(task))
        outcomes.extend(_invoke(task) for task in pending)
        if self.obs is not None:
            self.obs.cluster_fanout(op, len(tasks))
        return outcomes

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "FanOutPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False


def scatter_gather(
    starts: "Sequence[Callable[[], Callable[[], Any]]]",
    *,
    op: str = "broadcast",
    obs: "Observability | None" = None,
) -> "list[Outcome]":
    """Send every request from this thread, then read the replies in order.

    Each ``start`` writes one request and returns the callable reading
    its reply.  A failed start is that task's outcome; every request that
    went out is finished whatever the others did (no unread replies).
    """
    started = [_invoke(start) for start in starts]
    outcomes = [
        sent if sent.error is not None else _invoke(sent.value)
        for sent in started
    ]
    if obs is not None and len(outcomes) > 1:
        obs.cluster_fanout(op, len(outcomes))
    return outcomes
