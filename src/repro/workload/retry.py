"""The unified retry/timeout policy shared by every closed-loop driver.

The paper's driver protocol is "when a transaction aborts, the client
immediately starts a new transaction" — an unbounded, zero-backoff retry
loop.  :class:`RetryPolicy` generalizes that into an explicit, shared
policy object:

* **per-error-class retryability** — concurrency aborts
  (:class:`~repro.errors.SerializationFailure` including SSI,
  :class:`~repro.errors.DeadlockError`, :class:`~repro.errors.LockTimeout`,
  injected :class:`~repro.errors.FaultInjected` aborts) are retryable;
  business outcomes (:class:`~repro.errors.ApplicationRollback`) are not —
  retrying them would repeat the same deterministic failure.  A policy
  may name further error classes on either side: the chaos storm
  (:data:`repro.cluster.chaos.CHAOS_RETRY`) retries a dropped connection
  and gives up on a crashed 2PC coordinator; any other error that is not
  a :class:`~repro.errors.TransactionAborted` propagates;
* **bounded attempts** — ``max_attempts`` caps how often one logical
  request is retried before the driver *gives up* (recorded separately in
  :class:`~repro.workload.stats.RunStats`);
* **exponential backoff with jitter** — ``base_backoff`` doubles per
  failed attempt; ``jitter`` multiplies the delay by a uniform factor in
  ``[1, 1 + jitter]`` so synchronized retry storms decorrelate
  (multiplicative jitter, not AWS-style "full jitter"), and the result is
  clamped to ``max_backoff`` *after* jitter is applied, so
  ``max_backoff`` is a hard ceiling on every sleep.

The seed protocol — :meth:`RetryPolicy.paper_default` — is ``max_attempts=1``
with no backoff: each abort surfaces immediately and the closed-loop client
moves on to a fresh transaction, which reproduces the paper's figures
bit-for-bit.  :func:`run_request` is the one request loop: the threaded
driver and the simulated client each hand it one ``attempt`` and their own
clock (wall clock vs simulated time).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import (
    ApplicationRollback,
    DeadlockError,
    FaultInjected,
    LockTimeout,
    SerializationFailure,
    TransactionAborted,
)

if TYPE_CHECKING:
    from repro.obs import Observability
    from repro.workload.stats import RunStats

#: Default error-class split.  ``SerializationFailure`` covers ``SsiAbort``.
DEFAULT_RETRYABLE: tuple[type, ...] = (
    SerializationFailure,
    DeadlockError,
    LockTimeout,
    FaultInjected,
)
DEFAULT_NON_RETRYABLE: tuple[type, ...] = (ApplicationRollback,)


@dataclass(frozen=True)
class RetryPolicy:
    """How a driver retries one logical request after an abort.

    ``max_attempts`` counts the first try: ``1`` means never retry in
    place (the paper's protocol), ``4`` means up to three retries.
    """

    max_attempts: int = 1
    base_backoff: float = 0.0
    max_backoff: float = 0.1
    jitter: float = 0.0
    retryable: tuple[type, ...] = field(default=DEFAULT_RETRYABLE)
    non_retryable: tuple[type, ...] = field(default=DEFAULT_NON_RETRYABLE)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff durations must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    # ------------------------------------------------------------------
    @classmethod
    def paper_default(cls) -> "RetryPolicy":
        """The seed protocol: every abort surfaces, client starts afresh."""
        return cls(max_attempts=1)

    @classmethod
    def exponential(
        cls,
        max_attempts: int = 4,
        base_backoff: float = 0.001,
        max_backoff: float = 0.1,
        jitter: float = 0.5,
    ) -> "RetryPolicy":
        """A production-style safe-retry policy (cf. PostgreSQL SSI docs)."""
        return cls(
            max_attempts=max_attempts,
            base_backoff=base_backoff,
            max_backoff=max_backoff,
            jitter=jitter,
        )

    # ------------------------------------------------------------------
    def is_retryable(self, error: BaseException) -> bool:
        """Whether the error class permits retrying as a new transaction.

        The non-retryable list wins on overlap, so subclass surprises
        (e.g. a business error derived from an engine error) fail safe.
        """
        if isinstance(error, self.non_retryable):
            return False
        return isinstance(error, self.retryable)

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) may be followed by
        another, given that it failed with ``error``."""
        return attempt < self.max_attempts and self.is_retryable(error)

    def backoff(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay (seconds) before the attempt after ``attempt`` failures.

        Deterministic when ``jitter`` is zero or no ``rng`` is supplied;
        never draws from ``rng`` unless jitter actually applies, so
        installing a zero-backoff policy perturbs no random stream.  The
        clamp follows the jitter (see the module docstring).
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        if self.base_backoff <= 0:
            return 0.0
        delay = self.base_backoff * 2.0 ** (attempt - 1)
        if self.jitter > 0 and rng is not None:
            delay *= 1.0 + self.jitter * rng.random()
        return min(delay, self.max_backoff)


def run_request(
    program: str,
    args: dict,
    attempt: Callable[[str, dict], None],
    *,
    policy: RetryPolicy,
    stats: "RunStats",
    obs: "Optional[Observability]",
    now: Callable[[], float],
    sleep: Callable[[float], None],
    rng: Optional[random.Random],
    expired: Callable[[], bool] = lambda: False,
) -> None:
    """Run one request of a closed-loop client to its end.

    ``attempt(program, args)`` runs the request as a new transaction and
    returns on commit; on an error it rolls back and re-raises.  A failed
    attempt is an abort, or an error whose class ``policy`` names as
    retryable or non-retryable; it is recorded under its ``reason`` (an
    abort's) or wire ``code``, and retried while ``policy`` allows, after
    ``policy.backoff`` (jitter from ``rng``) spent in ``sleep``; otherwise
    the request gives up.  Any other error propagates.  Each outcome goes
    to ``stats`` at ``now()`` and to ``obs`` if installed; the response
    time spans the whole request.

    A retry is recorded only once the extra attempt starts, so within one
    measurement window ``stats.total_retries == stats.accounted_retries``;
    a request whose run ends (``expired()``) before or during its backoff
    is a give-up, not a retry.
    """
    started = now()
    for attempts in itertools.count(1):
        try:
            attempt(program, args)
        except ApplicationRollback:
            stats.record_rollback(program, now())
            if obs is not None:
                obs.driver_rollback(program)
            return
        except (TransactionAborted, *policy.retryable, *policy.non_retryable) as exc:
            reason = getattr(exc, "reason", exc.code)
            stats.record_abort(program, reason, now())
            if obs is not None:
                obs.driver_abort(program, reason)
            if policy.should_retry(exc, attempts) and not expired():
                delay = policy.backoff(attempts, rng)
                if delay > 0:
                    sleep(delay)
                if not expired():
                    stats.record_retry(program, now())
                    if obs is not None:
                        obs.driver_retry(program)
                    continue
            stats.record_giveup(program, now(), attempts)
            if obs is not None:
                obs.driver_giveup(program)
            return
        response = now() - started
        stats.record_commit(program, response, now(), attempts)
        if obs is not None:
            obs.driver_commit(program, response, attempts)
        return
