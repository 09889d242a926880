"""Per-shard broadcasts: gather every outcome, in order (DESIGN.md §14.2).

A broadcast costs one round trip, not ``shards × RTT``, when every
request is out before the first reply is awaited.  :func:`scatter_gather`
does that from the caller's own thread: each task is a split-phase
``start_*`` verb (of a :class:`~repro.net.client.NetworkSession` on the
transaction path — the 2PC rounds, a statement no single shard owns — or
of a
:class:`~repro.net.client.NetworkConnection` for the connection-level
sweeps: heartbeat, ping, stats, vacuum, the in-doubt scan), all are sent,
then the replies are read in task order, so a round costs no thread
hand-off.  Every task's outcome — value or exception — is captured
positionally and nothing is raised until the whole broadcast has
settled, which is what 2PC needs (all votes must be gathered even when
the first one is a NO).
"""

from __future__ import annotations

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
