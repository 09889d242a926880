"""Engine configuration: isolation level, conflict policy, SFU semantics.

The paper exercises two SI implementations that differ in exactly two ways:

* **Write-write conflict policy** — PostgreSQL implements *First Updater
  Wins* (a writer blocks on the row lock and aborts when the holder commits;
  a writer whose snapshot misses an already-committed newer version aborts
  immediately).  The original SI definition (Berenson et al. 1995) used
  *First Committer Wins* (conflicts detected by validation at commit time).
  Both prevent lost updates; they differ in *when* the loser learns.
* **``SELECT ... FOR UPDATE`` semantics** — on the commercial platform SFU
  "is treated for concurrency control like an Update": even after the
  SFU transaction commits, a concurrent writer of the row fails.  On
  PostgreSQL SFU only holds the row lock while the transaction is active,
  so the interleaving ``begin(T) begin(U) read-sfu(T,x) commit(T)
  write(U,x) commit(U)`` is allowed (Section II-C of the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class IsolationLevel(enum.Enum):
    """Concurrency-control regime of the engine."""

    SI = "si"
    """Snapshot Isolation — the paper's subject."""

    S2PL = "s2pl"
    """Strict two-phase locking (the conventional serializable baseline)."""

    SSI = "ssi"
    """SI plus the Cahill-style serializability certifier (extension)."""


class WriteConflictPolicy(enum.Enum):
    FIRST_UPDATER_WINS = "first-updater-wins"
    FIRST_COMMITTER_WINS = "first-committer-wins"


class SfuSemantics(enum.Enum):
    LOCK_ONLY = "lock-only"
    """PostgreSQL: SFU locks the row while active; no post-commit effect."""

    CC_WRITE = "cc-write"
    """Commercial: SFU participates in write-conflict detection like an
    update, but writes nothing (no version, no WAL record)."""


@dataclass(frozen=True)
class EngineConfig:
    """Complete engine behaviour selection.

    The two platform presets used throughout the reproduction are exposed as
    :meth:`postgres` and :meth:`commercial`.

    ``lock_timeout`` bounds how long a session waits for a row lock
    (seconds — wall-clock under the threaded driver, simulated time under
    the simulator).  ``None`` (the default, matching PostgreSQL's
    ``lock_timeout = 0``) waits forever; an expired wait aborts the waiter
    with :class:`~repro.errors.LockTimeout`.
    """

    isolation: IsolationLevel = IsolationLevel.SI
    write_conflict: WriteConflictPolicy = WriteConflictPolicy.FIRST_UPDATER_WINS
    sfu: SfuSemantics = SfuSemantics.LOCK_ONLY
    lock_timeout: "float | None" = None

    def with_lock_timeout(self, lock_timeout: "float | None") -> "EngineConfig":
        """This configuration with a different lock-wait timeout."""
        from dataclasses import replace

        if lock_timeout is not None and lock_timeout <= 0:
            raise ValueError("lock_timeout must be positive (or None to wait forever)")
        return replace(self, lock_timeout=lock_timeout)

    @classmethod
    def postgres(cls) -> "EngineConfig":
        """PostgreSQL 8.2-style SI: first-updater-wins, lock-only SFU."""
        return cls(
            isolation=IsolationLevel.SI,
            write_conflict=WriteConflictPolicy.FIRST_UPDATER_WINS,
            sfu=SfuSemantics.LOCK_ONLY,
        )

    @classmethod
    def commercial(cls) -> "EngineConfig":
        """Commercial-platform SI: SFU acts as a concurrency-control write."""
        return cls(
            isolation=IsolationLevel.SI,
            write_conflict=WriteConflictPolicy.FIRST_UPDATER_WINS,
            sfu=SfuSemantics.CC_WRITE,
        )

    @classmethod
    def first_committer_wins(cls) -> "EngineConfig":
        """The 1995 textbook SI variant (validation at commit)."""
        return cls(
            isolation=IsolationLevel.SI,
            write_conflict=WriteConflictPolicy.FIRST_COMMITTER_WINS,
            sfu=SfuSemantics.LOCK_ONLY,
        )

    @classmethod
    def s2pl(cls) -> "EngineConfig":
        return cls(isolation=IsolationLevel.S2PL)

    @classmethod
    def ssi(cls) -> "EngineConfig":
        return cls(isolation=IsolationLevel.SSI)
