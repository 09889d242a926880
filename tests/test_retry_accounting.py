"""Retry/stats accounting fixes: exact reconciliation, backoff clamp,
parameter-generator guards and aggregate-stat caching."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workload.stats as stats_mod
from repro.engine import EngineConfig
from repro.faults import FaultPlan, FaultSpec
from repro.smallbank import PopulationConfig, build_database, get_strategy
from repro.workload.driver import ThreadedDriver, ThreadedDriverConfig
from repro.workload.mix import HotspotConfig, ParameterGenerator
from repro.workload.retry import RetryPolicy
from repro.workload.stats import AggregateResult, RunStats, mean_and_ci


# ----------------------------------------------------------------------
# The retry-accounting invariant (the driver.run deadline fix)
# ----------------------------------------------------------------------
class TestRetryReconciliation:
    @pytest.mark.parametrize("probability", [1.0, 0.7])
    def test_total_retries_reconciles_with_attempt_histograms(
        self, probability: float
    ) -> None:
        """``total_retries`` must equal the retries implied by the attempt
        histograms even when the run deadline expires mid-retry.

        The fault plan aborts commits so aggressively that many requests
        are still inside their backoff sleep when the deadline passes —
        the exact window where the old driver recorded a retry for an
        attempt that never started.
        """
        db = build_database(
            EngineConfig.postgres(), PopulationConfig(customers=20)
        )
        db.install_faults(
            FaultPlan(
                [FaultSpec("abort-at-commit", probability=probability)],
                seed=3,
            )
        )
        driver = ThreadedDriver(
            db,
            get_strategy("base-si").transactions(),
            ThreadedDriverConfig(
                mpl=4,
                customers=20,
                hotspot=5,
                mix="readonly",  # Balance only: no business rollbacks
                duration=0.4,
                seed=5,
                retry=RetryPolicy(
                    max_attempts=5, base_backoff=0.02, max_backoff=0.05
                ),
                stats_window=(0.0, float("inf")),
            ),
        )
        stats = driver.run()
        assert stats.total_commits + stats.total_giveups > 0
        assert stats.total_giveups > 0  # the fault plan must have bitten
        assert stats.total_retries == stats.accounted_retries
        assert sum(stats.attempts_histogram.values()) == stats.total_commits
        assert (
            sum(stats.giveup_attempts_histogram.values())
            == stats.total_giveups
        )

    def test_accounted_retries_formula(self) -> None:
        stats = RunStats(window_start=0.0, window_end=10.0)
        stats.record_commit("Balance", 0.01, 1.0, attempts=3)  # 2 retries
        stats.record_commit("Balance", 0.01, 1.0, attempts=1)  # 0 retries
        stats.record_giveup("Balance", 1.0, attempts=5)  # 4 retries
        stats.record_giveup("Balance", 1.0, attempts=1)  # gave up pre-retry
        assert stats.accounted_retries == 6


# ----------------------------------------------------------------------
# Backoff clamp (RetryPolicy.backoff fix)
# ----------------------------------------------------------------------
class _FullJitterRng:
    """Deterministic rng stub pinning jitter to its supremum."""

    def random(self) -> float:
        return 0.999999


class TestBackoffClamp:
    def test_jittered_delay_cannot_exceed_max_backoff(self) -> None:
        """Regression: clamping before jitter let delays reach
        ``max_backoff * (1 + jitter)``."""
        policy = RetryPolicy(
            max_attempts=5, base_backoff=0.08, max_backoff=0.1, jitter=1.0
        )
        delay = policy.backoff(1, _FullJitterRng())
        # Unclamped: 0.08 * ~2 = ~0.16; the ceiling must win.
        assert delay == pytest.approx(0.1)

    @given(
        attempt=st.integers(min_value=1, max_value=12),
        base=st.floats(min_value=1e-4, max_value=1.0),
        cap=st.floats(min_value=1e-4, max_value=1.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_backoff_bounded_by_max_backoff(
        self, attempt, base, cap, jitter, seed
    ) -> None:
        policy = RetryPolicy(
            max_attempts=5,
            base_backoff=base,
            max_backoff=cap,
            jitter=jitter,
        )
        delay = policy.backoff(attempt, random.Random(seed))
        assert 0.0 <= delay <= cap

    def test_zero_jitter_does_not_draw_from_rng(self) -> None:
        policy = RetryPolicy(
            max_attempts=5, base_backoff=0.01, max_backoff=0.1, jitter=0.0
        )
        rng = random.Random(7)
        state = rng.getstate()
        policy.backoff(3, rng)
        assert rng.getstate() == state

    def test_module_docstring_describes_multiplicative_jitter(self) -> None:
        import repro.workload.retry as retry_mod

        doc = retry_mod.__doc__
        assert "multiplicative jitter" in doc
        assert "clamped" in doc


# ----------------------------------------------------------------------
# ParameterGenerator guards (pick_two_customers fix)
# ----------------------------------------------------------------------
class TestPickTwoCustomers:
    def test_single_customer_raises_instead_of_hanging(self) -> None:
        generator = ParameterGenerator(
            HotspotConfig(customers=1, hotspot=1), random.Random(0)
        )
        with pytest.raises(ValueError, match="at least 2 customers"):
            generator.pick_two_customers()

    def test_degenerate_hotspot_raises_instead_of_hanging(self) -> None:
        generator = ParameterGenerator(
            HotspotConfig(customers=5, hotspot=1, hotspot_probability=1.0),
            random.Random(0),
        )
        with pytest.raises(ValueError, match="hotspot"):
            generator.pick_two_customers()

    def test_mirrored_degenerate_hotspot_raises_instead_of_hanging(self) -> None:
        """Probability 0.0 sends every draw outside the hotspot, where only
        customer 11 lives."""
        generator = ParameterGenerator(
            HotspotConfig(customers=11, hotspot=10, hotspot_probability=0.0),
            random.Random(0),
        )
        with pytest.raises(ValueError, match="hotspot"):
            generator.pick_two_customers()

    def test_amalgamate_args_surface_the_error(self) -> None:
        generator = ParameterGenerator(
            HotspotConfig(customers=1, hotspot=1), random.Random(0)
        )
        with pytest.raises(ValueError):
            generator.args_for("Amalgamate")

    def test_valid_configs_still_return_distinct_pairs(self) -> None:
        generator = ParameterGenerator(
            HotspotConfig(customers=5, hotspot=2, hotspot_probability=0.9),
            random.Random(0),
        )
        for _ in range(100):
            first, second = generator.pick_two_customers()
            assert first != second
            assert 1 <= first <= 5 and 1 <= second <= 5

    def test_two_customer_full_hotspot_is_fine(self) -> None:
        generator = ParameterGenerator(
            HotspotConfig(customers=2, hotspot=2, hotspot_probability=1.0),
            random.Random(0),
        )
        assert sorted(generator.pick_two_customers()) == [1, 2]


# ----------------------------------------------------------------------
# AggregateResult caching (compute-once fix)
# ----------------------------------------------------------------------
def _run_with(commits: int, response: float) -> RunStats:
    stats = RunStats(window_start=0.0, window_end=1.0)
    for _ in range(commits):
        stats.record_commit("Balance", response, 0.5)
    return stats


class TestAggregateCaching:
    def test_values_match_direct_computation(self) -> None:
        runs = [_run_with(10, 0.01), _run_with(20, 0.03)]
        agg = AggregateResult(runs)
        expected_tps, expected_ci = mean_and_ci([r.tps for r in runs])
        assert agg.tps == expected_tps
        assert agg.tps_ci == expected_ci
        assert agg.mean_response_time == mean_and_ci(
            [r.mean_response_time for r in runs]
        )[0]

    def test_each_metric_computed_once(self, monkeypatch) -> None:
        calls = {"n": 0}
        real = stats_mod.mean_and_ci

        def counting(values, confidence=0.95):
            calls["n"] += 1
            return real(values, confidence)

        monkeypatch.setattr(stats_mod, "mean_and_ci", counting)
        agg = AggregateResult([_run_with(10, 0.01), _run_with(20, 0.03)])
        for _ in range(5):
            agg.tps
            agg.tps_ci  # shares the ("tps",) cache entry
        assert calls["n"] == 1
        agg.mean_response_time
        agg.mean_response_time
        assert calls["n"] == 2
        agg.abort_rate()
        agg.abort_rate("Balance")  # distinct key
        agg.abort_rate()
        assert calls["n"] == 4
        agg.commits_of("Balance")
        agg.commits_of("Balance")
        assert calls["n"] == 5

    def test_describe_uses_cache(self, monkeypatch) -> None:
        calls = {"n": 0}
        real = stats_mod.mean_and_ci

        def counting(values, confidence=0.95):
            calls["n"] += 1
            return real(values, confidence)

        monkeypatch.setattr(stats_mod, "mean_and_ci", counting)
        agg = AggregateResult([_run_with(5, 0.02), _run_with(7, 0.02)])
        agg.describe()
        agg.describe()
        # tps (shared with tps_ci) + response time + abort rate = 3 computations.
        assert calls["n"] == 3
