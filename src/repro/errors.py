"""Exception hierarchy for the repro engine, analysis and network layers.

The hierarchy mirrors the error classes a real SI platform reports:

* :class:`SerializationFailure` corresponds to PostgreSQL's
  ``ERROR: could not serialize access due to concurrent update`` (SQLSTATE
  40001) and the commercial platform's "can't serialize access" error.  The
  workload driver counts these as *aborts* (Figure 6 of the paper).
* :class:`DeadlockError` corresponds to a lock-manager detected deadlock
  (SQLSTATE 40P01).  It is also counted as an abort, with a distinct reason.
* :class:`ApplicationRollback` is raised by transaction programs themselves
  (e.g. TransactSaving with an overdrawing amount); it is an intentional
  rollback, not a concurrency abort.

Error codes (wire contract)
---------------------------

Every class carries a stable machine-readable ``code`` string — the
equivalent of SQLSTATE.  The network layer (:mod:`repro.net`) serializes an
exception as its code + message and the client reconstructs the *same*
class via :func:`error_from_code`, so ``except SerializationFailure:``
works identically against ``local://`` and ``tcp://`` backends.  Codes are
part of the public API: never change one, only add.  Classes that do not
define their own ``code`` inherit the nearest ancestor's and serialize as
that ancestor (:class:`WouldBlock`, for instance, is a session-local
control-flow signal and never crosses the wire).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library.

    ``code`` is the stable machine-readable identifier used by the wire
    protocol; see the module docstring.
    """

    code = "error"


class EngineError(ReproError):
    """Base class for errors raised by the storage/transaction engine."""

    code = "engine"


class TransactionAborted(EngineError):
    """Base class for errors that force the enclosing transaction to abort.

    Attributes
    ----------
    reason:
        Short machine-readable reason tag used by the workload statistics
        (``"serialization"``, ``"deadlock"``, ...).
    """

    reason = "aborted"
    code = "aborted"


class SerializationFailure(TransactionAborted):
    """First-updater-wins / first-committer-wins conflict abort.

    Raised when a transaction attempts to write (or, on the commercial
    platform, ``SELECT ... FOR UPDATE``) a row whose most recent version is
    newer than the transaction's snapshot, or when a blocked writer wakes up
    to find that the lock holder committed a conflicting change.
    """

    reason = "serialization"
    code = "serialization"


class DeadlockError(TransactionAborted):
    """The lock manager found a cycle in the waits-for graph."""

    reason = "deadlock"
    code = "deadlock"


class LockTimeout(TransactionAborted):
    """A lock wait exceeded the configured ``lock_timeout``.

    Corresponds to PostgreSQL's ``ERROR: canceling statement due to lock
    timeout`` (SQLSTATE 55P03) when ``lock_timeout`` is set.  The waiting
    transaction is aborted before the error propagates, so like a deadlock
    it is safe to retry as a new transaction.
    """

    reason = "lock-timeout"
    code = "lock-timeout"


class LockNotAvailable(TransactionAborted):
    """A no-wait operation found its lock held (PostgreSQL's ``NOWAIT``).

    Raised instead of waiting when the caller asked not to block: the
    cluster router runs the first part of a cross-shard program this way
    because it holds the oracle's snapshot window meanwhile (DESIGN.md
    §12.6).  The transaction is rolled back before the error propagates.
    """

    reason = "lock-not-available"
    code = "lock-not-available"


class FaultInjected(TransactionAborted):
    """A fault-injection plan aborted the transaction (chaos testing).

    Semantically equivalent to a spurious server-side abort: the
    transaction's effects are rolled back and retrying as a new
    transaction is safe.
    """

    reason = "fault"
    code = "fault"


class SsiAbort(SerializationFailure):
    """Abort raised by the SSI certifier (engine mode ``SSI``).

    A distinct subclass so experiments can distinguish certifier aborts from
    plain write-write first-updater-wins aborts, while code that merely
    retries can catch :class:`SerializationFailure`.
    """

    reason = "ssi"
    code = "ssi"


class ApplicationRollback(ReproError):
    """A transaction program decided to roll back (business rule).

    E.g. TransactSaving rolls back when the withdrawal would make the savings
    balance negative.  This is *not* a concurrency anomaly.
    """

    reason = "rollback"
    code = "rollback"

    def __init__(self, message: str = "") -> None:
        super().__init__(message or "application rollback")


class IntegrityError(EngineError):
    """A schema constraint (primary key / unique index / type) was violated."""

    code = "integrity"


class DatabaseCrashed(EngineError):
    """The database crashed (or a crash was injected) and must recover.

    Raised by the operation during which the crash happened and by every
    subsequent operation on the crashed instance.  This is *not* a
    :class:`TransactionAborted`: the client cannot simply retry on the same
    database — it must wait for :meth:`~repro.engine.engine.Database.recover`.
    """

    code = "crashed"


class RecoveryError(EngineError):
    """WAL replay failed (corrupt prefix, non-monotonic timestamps, ...)."""

    code = "recovery"


class SchemaError(EngineError):
    """Unknown table/column, or an operation inconsistent with the schema."""

    code = "schema"


class TransactionStateError(EngineError):
    """An operation was issued on a finished or never-started transaction."""

    code = "txn-state"


class AnalysisError(ReproError):
    """Base class for errors in the static/dynamic analysis layers."""

    code = "analysis"


class SpecError(AnalysisError):
    """A :class:`~repro.core.specs.ProgramSpec` declaration is malformed."""

    code = "spec"


class SqlError(ReproError):
    """The mini SQL layer could not parse or execute a statement."""

    code = "sql"


class ProtocolError(ReproError):
    """The wire protocol was violated (bad frame, unknown op, bad field).

    Raised by both sides of a :mod:`repro.net` connection: by the client
    when the server's bytes cannot be decoded, and round-tripped from the
    server when a request was malformed (oversized frame, non-JSON payload,
    unknown operation, missing argument).  A protocol error on the framing
    layer poisons the connection — the peer closes it — while a
    request-level protocol error leaves the connection usable.
    """

    code = "protocol"


class ConnectionClosed(ReproError):
    """The network peer went away (EOF, reset, or explicit shutdown).

    Raised by the client when a request cannot be sent or its response
    never arrives.  If a transaction was in flight, the server has aborted
    it and released its locks — the request may or may not have executed,
    so blind retry is only safe for idempotent operations.  The closed-loop
    drivers re-raise it under the default retry policy; one that lists it
    as retryable (the chaos storm's) reruns the request afresh.
    """

    code = "connection-closed"


class ShardUnavailable(ConnectionClosed):
    """A cluster shard is marked unhealthy — fail fast instead of dialing.

    Raised by :class:`repro.cluster.ClusterConnection` when health
    tracking (heartbeats) has declared a shard down.  Semantically a
    connection failure, but typed so chaos harnesses and retry loops can
    distinguish "known-down shard, back off and wait for recovery" from a
    fresh connection error.
    """

    code = "shard-unavailable"


class CoordinatorCrashed(ReproError):
    """The 2PC coordinator died inside the prepare→decision window.

    The outcome of the global transaction is *unknown* to the caller:
    every participant voted YES, but whether the commit decision reached
    the coordinator's durable log decides commit vs presumed abort.  This
    is deliberately **not** a :class:`TransactionAborted` — the
    transaction may still commit during recovery, so the caller must not
    blindly re-execute it; it must wait for in-doubt resolution
    (:meth:`repro.cluster.ClusterConnection.resolve_in_doubt`).
    """

    code = "coordinator-crashed"

    def __init__(self, message: str = "", gtid: str = "") -> None:
        super().__init__(message or "coordinator crashed before the decision landed")
        self.gtid = gtid


# ----------------------------------------------------------------------
# Code registry (wire round-trip)
# ----------------------------------------------------------------------
def _build_registry() -> dict[str, type]:
    registry: dict[str, type] = {}
    stack: list[type] = [ReproError]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        code = cls.__dict__.get("code")
        if code is None:
            continue  # inherits its ancestor's code; serializes as that
        if code in registry and registry[code] is not cls:
            raise RuntimeError(
                f"duplicate error code {code!r}: "
                f"{registry[code].__name__} vs {cls.__name__}"
            )
        registry[code] = cls
    return registry


#: ``code -> exception class`` for every class defining its own code.
ERROR_CODES: dict[str, type] = _build_registry()


def error_from_code(code: str, message: str = "") -> ReproError:
    """Reconstruct the exception class registered for ``code``.

    Unknown codes (a newer peer) degrade to a plain :class:`ReproError`
    carrying the original code in the message, so nothing is silently
    swallowed.
    """
    cls = ERROR_CODES.get(code)
    if cls is None:
        return ReproError(f"[{code}] {message}")
    return cls(message)
