"""Error-hierarchy contracts the retry logic and statistics rely on."""

from __future__ import annotations

import pytest

from repro.errors import (
    ApplicationRollback,
    DatabaseCrashed,
    DeadlockError,
    EngineError,
    FaultInjected,
    LockTimeout,
    RecoveryError,
    ReproError,
    SerializationFailure,
    SsiAbort,
    TransactionAborted,
)


class TestHierarchy:
    def test_concurrency_aborts_share_a_base(self):
        """The workload driver catches TransactionAborted for retries."""
        for error_type in (
            SerializationFailure,
            DeadlockError,
            SsiAbort,
            LockTimeout,
            FaultInjected,
        ):
            assert issubclass(error_type, TransactionAborted)
            assert issubclass(error_type, EngineError)
            assert issubclass(error_type, ReproError)

    def test_ssi_abort_is_a_serialization_failure(self):
        """Code retrying on SerializationFailure handles SSI aborts too."""
        assert issubclass(SsiAbort, SerializationFailure)

    def test_application_rollback_is_not_a_concurrency_abort(self):
        """Business-rule rollbacks must not be counted as aborts."""
        assert not issubclass(ApplicationRollback, TransactionAborted)
        assert issubclass(ApplicationRollback, ReproError)

    def test_abort_reasons_are_distinct(self):
        """Figure 6 statistics key on the reason tags."""
        reasons = {
            SerializationFailure.reason,
            DeadlockError.reason,
            SsiAbort.reason,
        }
        assert reasons == {"serialization", "deadlock", "ssi"}

    def test_robustness_abort_reasons_are_distinct(self):
        """The abort-breakdown statistics key on the full reason set."""
        reasons = {
            SerializationFailure.reason,
            DeadlockError.reason,
            SsiAbort.reason,
            LockTimeout.reason,
            FaultInjected.reason,
        }
        assert reasons == {
            "serialization",
            "deadlock",
            "ssi",
            "lock-timeout",
            "fault",
        }

    def test_lock_timeout_counts_as_concurrency_abort(self):
        from repro.workload.stats import CONCURRENCY_ABORT_REASONS

        assert LockTimeout.reason in CONCURRENCY_ABORT_REASONS
        assert FaultInjected.reason not in CONCURRENCY_ABORT_REASONS

    def test_crash_and_recovery_errors_are_not_aborts(self):
        """A crashed database is not a retryable transaction outcome:
        the request layer must not blindly begin a new transaction."""
        for error_type in (DatabaseCrashed, RecoveryError):
            assert issubclass(error_type, EngineError)
            assert not issubclass(error_type, TransactionAborted)

    def test_application_rollback_default_message(self):
        assert "rollback" in str(ApplicationRollback())
        assert str(ApplicationRollback("custom")) == "custom"


class TestStatsFallback:
    def test_t_critical_without_scipy(self, monkeypatch):
        import sys

        import repro.workload.stats as stats_module

        # A None entry makes the function-level ``from scipy import
        # stats`` raise ImportError, as on a host without scipy.
        monkeypatch.setitem(sys.modules, "scipy", None)
        # Table value for 4 degrees of freedom (5 repetitions).
        assert stats_module.t_critical(4) == pytest.approx(2.776)
        # Large dof falls back to the normal approximation.
        assert stats_module.t_critical(100) == pytest.approx(1.96)
        assert stats_module.t_critical(0) == float("inf")

    def test_t_critical_with_scipy_matches_table(self):
        from repro.workload.stats import t_critical

        assert t_critical(4) == pytest.approx(2.776, abs=0.01)
