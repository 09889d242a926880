"""The unified retry layer: policy semantics and driver integration."""

from __future__ import annotations

import contextlib
import random
import time

import pytest

from repro.cluster.chaos import CHAOS_RETRY
from repro.errors import (
    ApplicationRollback,
    ConnectionClosed,
    CoordinatorCrashed,
    DeadlockError,
    FaultInjected,
    IntegrityError,
    LockTimeout,
    SerializationFailure,
    SsiAbort,
    TransactionAborted,
)
from repro.faults import FaultPlan, FaultSpec
from repro.obs import Observability
from repro.smallbank.transactions import SmallBankTransactions
from repro.workload.driver import (
    ThreadedDriver,
    ThreadedDriverConfig,
    ThreadedDriverError,
)
from repro.smallbank import PopulationConfig, build_database
from repro.workload.retry import RetryPolicy, run_request
from repro.workload.stats import RunStats


# ----------------------------------------------------------------------
# Policy semantics
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_paper_default_never_retries(self) -> None:
        policy = RetryPolicy.paper_default()
        assert policy.max_attempts == 1
        assert not policy.should_retry(SerializationFailure("x"), 1)

    @pytest.mark.parametrize(
        "error",
        [
            SerializationFailure("x"),
            DeadlockError("x"),
            LockTimeout("x"),
            FaultInjected("x"),
            SsiAbort("x"),
        ],
    )
    def test_concurrency_errors_are_retryable(self, error) -> None:
        assert RetryPolicy.exponential().is_retryable(error)

    @pytest.mark.parametrize(
        "error", [ApplicationRollback("x"), IntegrityError("x")]
    )
    def test_business_errors_are_not_retryable(self, error) -> None:
        assert not RetryPolicy.exponential().is_retryable(error)

    def test_non_retryable_wins_on_overlap(self) -> None:
        policy = RetryPolicy(
            max_attempts=3,
            retryable=(Exception,),
            non_retryable=(IntegrityError,),
        )
        assert policy.is_retryable(SerializationFailure("x"))
        assert not policy.is_retryable(IntegrityError("x"))

    def test_should_retry_respects_max_attempts(self) -> None:
        policy = RetryPolicy.exponential(max_attempts=3)
        err = SerializationFailure("x")
        assert policy.should_retry(err, 1)
        assert policy.should_retry(err, 2)
        assert not policy.should_retry(err, 3)

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_backoff_progression_and_cap(self) -> None:
        policy = RetryPolicy(
            max_attempts=10,
            base_backoff=0.01,
            max_backoff=0.05,
            jitter=0.0,
        )
        rng = random.Random(1)
        delays = [policy.backoff(n, rng) for n in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]  # capped

    def test_zero_base_backoff_draws_nothing(self) -> None:
        """The default policy must not consume RNG state (bit-identical
        seed figures depend on it)."""
        policy = RetryPolicy.paper_default()
        rng = random.Random(1)
        before = rng.getstate()
        assert policy.backoff(1, rng) == 0.0
        assert rng.getstate() == before

    def test_jitter_bounds(self) -> None:
        policy = RetryPolicy(
            max_attempts=5, base_backoff=0.01, jitter=0.5, max_backoff=1.0
        )
        rng = random.Random(7)
        for attempt in range(1, 5):
            base = 0.01 * 2.0 ** (attempt - 1)
            for _ in range(20):
                delay = policy.backoff(attempt, rng)
                assert base <= delay <= base * 1.5


# ----------------------------------------------------------------------
# The request loop, on a scripted attempt and a fake clock
# ----------------------------------------------------------------------
class IntegrityAbort(IntegrityError, TransactionAborted):
    """An abort that is also a constraint violation: never retryable."""

    reason = "integrity"


ABORT = SerializationFailure("write-write conflict")
#: Backoff 2 s, then 4 s, then 8 s: no jitter, so no draw.
BACKOFF = RetryPolicy(max_attempts=4, base_backoff=2.0, max_backoff=8.0)


@pytest.mark.parametrize(
    "outcomes, policy, deadline, expected",
    [
        pytest.param(
            [ABORT, ABORT, None],
            BACKOFF,
            float("inf"),
            {"commits": 1, "aborts": 2, "retries": 2, "sleeps": [2.0, 4.0]},
            id="abort-abort-commit",
        ),
        pytest.param(
            [ABORT] * 3,
            RetryPolicy(max_attempts=3),
            float("inf"),
            {"aborts": 3, "retries": 2, "giveups": 1},
            id="attempts-exhausted",
        ),
        pytest.param(
            [ApplicationRollback("overdrawn")],
            BACKOFF,
            float("inf"),
            {"rollbacks": 1},
            id="business-rollback",
        ),
        pytest.param(
            [IntegrityAbort("duplicate key")],
            BACKOFF,
            float("inf"),
            {"aborts": 1, "giveups": 1},
            id="non-retryable",
        ),
        pytest.param(
            [ABORT],
            BACKOFF,
            1.0,
            {"aborts": 1, "giveups": 1, "sleeps": [2.0]},
            id="expired-during-backoff",
        ),
        pytest.param(
            [ConnectionClosed("reset"), None],
            RetryPolicy(
                max_attempts=2,
                base_backoff=2.0,
                max_backoff=8.0,
                retryable=(ConnectionClosed,),
            ),
            float("inf"),
            {
                "commits": 1,
                "aborts": 1,
                "retries": 1,
                "sleeps": [2.0],
                "reasons": {"connection-closed": 1},
            },
            id="listed-connection-closed-is-retried",
        ),
        pytest.param(
            [CoordinatorCrashed()],
            RetryPolicy(max_attempts=3, non_retryable=(CoordinatorCrashed,)),
            float("inf"),
            {"aborts": 1, "giveups": 1, "reasons": {"coordinator-crashed": 1}},
            id="listed-coordinator-crash-gives-up",
        ),
        pytest.param(
            [IntegrityError("duplicate key")],
            RetryPolicy(),
            float("inf"),
            {"raises": IntegrityError},
            id="default-policy-raises-integrity-error",
        ),
        pytest.param(
            [ConnectionClosed("reset")],
            RetryPolicy(),
            float("inf"),
            {"raises": ConnectionClosed},
            id="default-policy-raises-connection-closed",
        ),
    ],
)
def test_run_request_attempts_retries_and_accounts(
    outcomes, policy, deadline, expected
) -> None:
    """One request through :func:`run_request`: each attempt takes 0.5 s
    of a fake clock, each backoff sleeps on it, and the outcome lands in
    ``RunStats`` and in the driver metrics alike.  An error the policy
    does not name propagates, and nothing is recorded for it."""
    clock, sleeps, script = [0.0], [], list(outcomes)

    def attempt(program, args) -> None:
        assert (program, args) == ("Balance", {"name": 1})
        clock[0] += 0.5
        outcome = script.pop(0)
        if outcome is not None:
            raise outcome

    def sleep(delay: float) -> None:
        sleeps.append(delay)
        clock[0] += delay

    stats = RunStats(window_start=0.0, window_end=float("inf"))
    obs = Observability()
    raises = expected.get("raises")
    with pytest.raises(raises) if raises else contextlib.nullcontext():
        run_request(
            "Balance",
            {"name": 1},
            attempt,
            policy=policy,
            stats=stats,
            obs=obs,
            now=lambda: clock[0],
            sleep=sleep,
            rng=random.Random(1),
            expired=lambda: clock[0] >= deadline,
        )

    assert script == []  # every scripted attempt ran, and no more
    assert sleeps == expected.get("sleeps", [])
    counts = {
        "commits": stats.total_commits,
        "aborts": sum(stats.aborts.values()),
        "rollbacks": sum(stats.rollbacks.values()),
        "retries": stats.total_retries,
        "giveups": stats.total_giveups,
    }
    assert counts == {name: expected.get(name, 0) for name in counts}
    assert stats.total_retries == stats.accounted_retries
    if "reasons" in expected:
        assert stats.abort_breakdown() == expected["reasons"]
    if counts["commits"] or counts["giveups"]:
        # The request's attempts: its aborts, plus the commit if any.
        histogram = (
            stats.attempts_histogram
            if counts["commits"]
            else stats.giveup_attempts_histogram
        )
        assert dict(histogram) == {counts["aborts"] + counts["commits"]: 1}
    if counts["commits"]:
        # Timed from the first attempt: every attempt and every backoff.
        assert stats.response_time_sum == clock[0] == (
            0.5 * len(outcomes) + sum(sleeps)
        )
    driver_counts = {
        name: sum(
            instrument.value
            for instrument in obs.metrics
            if instrument.name == f"repro_driver_{name}_total"
        )
        for name in counts
    }
    assert driver_counts == counts


# ----------------------------------------------------------------------
# Threaded driver integration: deterministic retry accounting
# ----------------------------------------------------------------------
def smallbank_db():
    return build_database(None, PopulationConfig(customers=10, seed=1))


def run_driver(db, *, retry=None, mpl=1, duration=0.5):
    driver = ThreadedDriver(
        db,
        SmallBankTransactions(),
        ThreadedDriverConfig(
            mpl=mpl,
            customers=10,
            hotspot=3,
            duration=duration,
            join_grace=10.0,
            retry=retry,
        ),
    )
    return driver.run()


def test_driver_retries_until_fault_exhausted() -> None:
    """abort-at-commit fires 3 times; a 5-attempt policy rides them out:
    exactly one commit needs 4 attempts, everything else needs 1."""
    db = smallbank_db()
    db.install_faults(
        FaultPlan([FaultSpec("abort-at-commit", max_fires=3)])
    )
    stats = run_driver(db, retry=RetryPolicy.exponential(max_attempts=5))

    assert stats.abort_breakdown().get("fault", 0) == 3
    assert stats.total_retries == 3
    assert stats.total_giveups == 0
    assert stats.attempts_histogram[4] == 1
    assert stats.mean_attempts_per_commit() > 1.0
    assert stats.total_commits > 0


def test_driver_gives_up_when_attempts_exhausted() -> None:
    """With max_attempts=2 and 5 forced aborts: requests 1 and 2 burn two
    attempts each and give up; request 3 aborts once, then commits."""
    db = smallbank_db()
    db.install_faults(
        FaultPlan([FaultSpec("abort-at-commit", max_fires=5)])
    )
    stats = run_driver(db, retry=RetryPolicy.exponential(max_attempts=2))

    assert stats.abort_breakdown().get("fault", 0) == 5
    assert stats.total_giveups == 2
    assert stats.total_retries == 3
    assert stats.attempts_histogram[2] == 1  # request 3 committed on retry


class RecordingObservability(Observability):
    """Keeps each committed request's (response time, attempts)."""

    def __init__(self) -> None:
        super().__init__()
        self.requests: list[tuple[float, int]] = []

    def driver_commit(self, program: str, response_time: float, attempts: int) -> None:
        super().driver_commit(program, response_time, attempts)
        self.requests.append((response_time, attempts))


def test_retried_request_is_timed_from_its_first_attempt() -> None:
    """A retried request's response time spans its failed attempt and the
    backoff sleep, not only the attempt that committed."""
    db = smallbank_db()
    db.install_faults(FaultPlan([FaultSpec("abort-at-commit", max_fires=1)]))
    obs = RecordingObservability()
    driver = ThreadedDriver(
        db,
        SmallBankTransactions(),
        ThreadedDriverConfig(
            mpl=1,
            customers=10,
            hotspot=3,
            duration=0.3,
            join_grace=10.0,
            retry=RetryPolicy.exponential(
                max_attempts=3, base_backoff=0.05, max_backoff=0.05
            ),
        ),
        obs=obs,
    )
    driver.run()
    (retried,) = [rt for rt, attempts in obs.requests if attempts == 2]
    assert retried >= 0.05


def test_driver_default_policy_surfaces_every_abort() -> None:
    db = smallbank_db()
    db.install_faults(
        FaultPlan([FaultSpec("abort-at-commit", max_fires=2)])
    )
    stats = run_driver(db)  # paper default: no in-place retries

    assert stats.total_retries == 0
    assert stats.total_giveups == 2
    assert stats.abort_breakdown().get("fault", 0) == 2
    assert set(stats.attempts_histogram) <= {1}


# ----------------------------------------------------------------------
# Satellite fixes: session release on rollback, no silent worker death
# ----------------------------------------------------------------------
class Rollbacky(SmallBankTransactions):
    """Every request raises a business rollback mid-transaction while
    holding a row lock — the session-leak regression case."""

    def run(self, session, program, args, *, commit=True):
        session.begin(program)
        session.update("Saving", 1, {"Balance": 1.0})
        raise ApplicationRollback("declined")


def test_application_rollback_releases_the_session() -> None:
    db = smallbank_db()
    driver = ThreadedDriver(
        db,
        Rollbacky(),
        ThreadedDriverConfig(
            mpl=2, customers=10, hotspot=3, duration=0.3, join_grace=10.0
        ),
    )
    stats = driver.run()
    # Before the fix the first rollback leaked its transaction: Saving 1
    # stayed locked, both workers wedged, and active txns lingered.
    assert db.active_transactions == ()
    assert sum(stats.rollbacks.values()) > 2


class CoordinatorCrashing(SmallBankTransactions):
    def run(self, session, program, args, *, commit=True):
        raise CoordinatorCrashed(gtid="g1")


class BrokenWireSession:
    """A session whose wire died with the attempt: clean-up raises too."""

    def __init__(self, released: list) -> None:
        self.released = released

    def rollback(self) -> None:
        self.released.append("rollback")
        raise ConnectionClosed("wire gone")

    def close(self) -> None:
        self.released.append("close")
        raise ConnectionClosed("wire gone")


class BrokenWireConnection:
    def __init__(self) -> None:
        self.released: list = []

    def session(self) -> BrokenWireSession:
        return BrokenWireSession(self.released)


def test_clean_up_on_a_broken_wire_keeps_the_attempts_error() -> None:
    """Under the chaos storm's policy, a rollback and close that fail after
    a coordinator crash must not turn it into a retried ConnectionClosed:
    the request gives up under the crash's code, after trying both
    releases once."""
    connection = BrokenWireConnection()
    driver = ThreadedDriver(
        None, CoordinatorCrashing(), ThreadedDriverConfig(), connection=connection
    )
    stats = RunStats(window_start=0.0, window_end=float("inf"))
    run_request(
        "Amalgamate",
        {},
        driver._attempt,
        policy=CHAOS_RETRY,
        stats=stats,
        obs=None,
        now=time.monotonic,
        sleep=time.sleep,
        rng=None,
    )
    assert stats.abort_breakdown() == {"coordinator-crashed": 1}
    assert (stats.total_retries, stats.total_giveups) == (0, 1)
    assert connection.released == ["rollback", "close"]


class Exploding(SmallBankTransactions):
    def run(self, session, program, args, *, commit=True):
        raise RuntimeError("boom")


def test_worker_death_is_reported_not_silent() -> None:
    db = smallbank_db()
    driver = ThreadedDriver(
        db,
        Exploding(),
        ThreadedDriverConfig(
            mpl=2, customers=10, hotspot=3, duration=0.2, join_grace=10.0
        ),
    )
    with pytest.raises(ThreadedDriverError) as excinfo:
        driver.run()
    assert set(excinfo.value.failures) == {0, 1}
    assert all(
        isinstance(exc, RuntimeError) for exc in excinfo.value.failures.values()
    )
    assert "boom" in str(excinfo.value)


class Sleepy(SmallBankTransactions):
    def run(self, session, program, args, *, commit=True):
        time.sleep(2.0)
        raise ApplicationRollback("too slow")


def test_stuck_worker_is_reported() -> None:
    db = smallbank_db()
    driver = ThreadedDriver(
        db,
        Sleepy(),
        ThreadedDriverConfig(
            mpl=1, customers=10, hotspot=3, duration=0.1, join_grace=0.2
        ),
    )
    with pytest.raises(ThreadedDriverError) as excinfo:
        driver.run()
    assert excinfo.value.stuck == (0,)
    assert "still alive" in str(excinfo.value)
