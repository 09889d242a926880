"""Tests for mixes, hotspot parameter generation and statistics."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig
from repro.smallbank import PROGRAM_NAMES, PopulationConfig, build_database, customer_name
from repro.smallbank.strategies import get_strategy
from repro.workload import (
    BALANCE60_MIX,
    MIXES,
    UNIFORM_MIX,
    HotspotConfig,
    ParameterGenerator,
    RunStats,
    ThreadedDriver,
    ThreadedDriverConfig,
    TransactionMix,
    get_mix,
    mean_and_ci,
)
from repro.workload.stats import AggregateResult


class TestMix:
    def test_uniform_mix_covers_all_programs(self):
        rng = random.Random(1)
        seen = {UNIFORM_MIX.choose(rng) for _ in range(500)}
        assert seen == set(PROGRAM_NAMES)

    def test_balance60_mix_is_balance_heavy(self):
        rng = random.Random(1)
        picks = [BALANCE60_MIX.choose(rng) for _ in range(5000)]
        fraction = picks.count("Balance") / len(picks)
        assert 0.55 < fraction < 0.65

    def test_get_mix_unknown(self):
        with pytest.raises(KeyError):
            get_mix("nope")

    def test_invalid_mix_rejected(self):
        with pytest.raises(ValueError):
            TransactionMix("bad", {"NotAProgram": 1.0})
        with pytest.raises(ValueError):
            TransactionMix("bad", {})


#: Weight maps over any non-empty subset of the programs, in any order,
#: zero weights included (a map whose weights are all zero is refused).
weight_maps = st.lists(
    st.tuples(
        st.sampled_from(PROGRAM_NAMES),
        st.one_of(
            st.just(0.0),
            st.integers(min_value=0, max_value=100),
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        ),
    ),
    min_size=1,
    max_size=len(PROGRAM_NAMES),
    unique_by=lambda item: item[0],
).map(dict)


def assert_draws_like_choices(mix, seed, draws=50):
    """``mix.choose`` takes the program ``random.choices`` takes, from the
    same state, and leaves the generator where ``random.choices`` does."""
    ours, theirs = random.Random(seed), random.Random(seed)
    programs = list(mix.weights)
    weights = [mix.weights[p] for p in programs]
    for _ in range(draws):
        assert mix.choose(ours) == theirs.choices(programs, weights=weights)[0]
    assert ours.getstate() == theirs.getstate()


class TestDrawStream:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32), name=st.sampled_from(sorted(MIXES)))
    def test_registered_mixes_draw_what_choices_draws(self, seed, name):
        assert_draws_like_choices(MIXES[name], seed)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32), weights=weight_maps)
    def test_any_weights_draw_what_choices_draws(self, seed, weights):
        assume(sum(weights.values()) > 0)
        assert_draws_like_choices(TransactionMix("generated", weights), seed)

    @pytest.mark.parametrize(
        "weights",
        [
            {"Balance": 0.0},
            {"Balance": 0.0, "WriteCheck": 0},
            {"Balance": math.inf},
            {"Balance": 1.0, "WriteCheck": math.nan},
        ],
    )
    def test_a_total_choices_refuses_is_refused_at_construction(self, weights):
        with pytest.raises(ValueError) as choices_error:
            random.Random(1).choices(list(weights), weights=list(weights.values()))
        with pytest.raises(ValueError) as mix_error:
            TransactionMix("refused", weights)
        assert str(mix_error.value) == str(choices_error.value)


class ReferenceGenerator:
    """The parameter draw as ``ParameterGenerator`` once wrote it, on
    ``randint`` and ``uniform``: the stream the paper figures and the
    simulator's goldens were made with."""

    def __init__(self, config, rng):
        self.config, self.rng = config, rng

    def pick_customer(self):
        cfg = self.config
        if cfg.hotspot >= cfg.customers or self.rng.random() < cfg.hotspot_probability:
            return self.rng.randint(1, cfg.hotspot)
        return self.rng.randint(cfg.hotspot + 1, cfg.customers)

    def pick_two_customers(self):
        cfg = self.config
        if cfg.customers < 2 or (cfg.hotspot < 2 and cfg.hotspot_probability >= 1.0) or (
            cfg.customers - cfg.hotspot == 1 and cfg.hotspot_probability <= 0.0
        ):
            raise ValueError("refused")
        first = self.pick_customer()
        second = self.pick_customer()
        while second == first:
            second = self.pick_customer()
        return first, second

    def args_for(self, program):
        rng, name = self.rng, customer_name
        if program == "Balance":
            return {"N": name(self.pick_customer())}
        if program == "DepositChecking":
            return {"N": name(self.pick_customer()), "V": round(rng.uniform(1.0, 100.0), 2)}
        if program == "TransactSaving":
            return {"N": name(self.pick_customer()), "V": round(rng.uniform(-50.0, 100.0), 2)}
        if program == "Amalgamate":
            first, second = self.pick_two_customers()
            return {"N1": name(first), "N2": name(second)}
        if program == "WriteCheck":
            return {"N": name(self.pick_customer()), "V": round(rng.uniform(1.0, 50.0), 2)}
        raise ValueError(f"unknown program {program!r}")


@st.composite
def hotspot_configs(draw):
    customers = draw(st.one_of(st.integers(1, 70), st.integers(1, 5000)))
    hotspot = draw(st.integers(1, customers))
    probability = draw(st.one_of(st.sampled_from([0.0, 0.9, 1.0]), st.floats(0.0, 1.0)))
    return HotspotConfig(customers, hotspot, probability)


class TestParameterStream:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        config=hotspot_configs(),
        programs=st.lists(st.sampled_from([*PROGRAM_NAMES, "Nope"]), min_size=1, max_size=40),
    )
    def test_args_for_draws_what_the_reference_draws(self, seed, config, programs):
        """Same dicts, same refusals, and the generator left in the same
        state, request after request."""
        ours, theirs = random.Random(seed), random.Random(seed)
        generator, reference = ParameterGenerator(config, ours), ReferenceGenerator(config, theirs)
        for program in programs:
            try:
                expected = reference.args_for(program)
            except ValueError:
                with pytest.raises(ValueError):
                    generator.args_for(program)
            else:
                assert generator.args_for(program) == expected
            assert ours.getstate() == theirs.getstate()


class TestHotspot:
    def test_validation(self):
        with pytest.raises(ValueError):
            HotspotConfig(customers=10, hotspot=11)
        with pytest.raises(ValueError):
            HotspotConfig(customers=10, hotspot=5, hotspot_probability=1.5)

    def test_ninety_percent_in_hotspot(self):
        config = HotspotConfig(customers=1000, hotspot=100)
        generator = ParameterGenerator(config, random.Random(7))
        picks = [generator.pick_customer() for _ in range(10_000)]
        in_hot = sum(1 for cid in picks if cid <= 100)
        assert 0.88 < in_hot / len(picks) < 0.92
        assert all(1 <= cid <= 1000 for cid in picks)

    def test_hotspot_covering_everything(self):
        config = HotspotConfig(customers=10, hotspot=10)
        generator = ParameterGenerator(config, random.Random(7))
        assert all(1 <= generator.pick_customer() <= 10 for _ in range(100))

    def test_amalgamate_customers_distinct(self):
        config = HotspotConfig(customers=5, hotspot=5)
        generator = ParameterGenerator(config, random.Random(7))
        for _ in range(200):
            first, second = generator.pick_two_customers()
            assert first != second

    def test_args_for_every_program(self):
        config = HotspotConfig(customers=100, hotspot=10)
        generator = ParameterGenerator(config, random.Random(7))
        for program in PROGRAM_NAMES:
            args = generator.args_for(program)
            if program == "Amalgamate":
                assert {"N1", "N2"} <= set(args)
            else:
                assert "N" in args
        with pytest.raises(ValueError):
            generator.args_for("Nope")


class TestStats:
    def test_window_filtering(self):
        stats = RunStats(window_start=1.0, window_end=2.0)
        stats.record_commit("Balance", 0.01, at=0.5)  # ramp-up: ignored
        stats.record_commit("Balance", 0.01, at=1.5)
        stats.record_commit("Balance", 0.03, at=2.5)  # after window
        assert stats.total_commits == 1
        assert stats.tps == pytest.approx(1.0)
        assert stats.mean_response_time == pytest.approx(0.01)

    def test_abort_rate_excludes_rollbacks(self):
        stats = RunStats(window_start=0.0, window_end=1.0)
        stats.record_commit("WriteCheck", 0.01, at=0.5)
        stats.record_abort("WriteCheck", "serialization", at=0.5)
        stats.record_rollback("WriteCheck", at=0.5)
        assert stats.abort_rate("WriteCheck") == pytest.approx(0.5)
        assert stats.abort_rate() == pytest.approx(0.5)
        assert stats.abort_count() == 1

    def test_mean_and_ci(self):
        mean, half = mean_and_ci([10.0, 10.0, 10.0])
        assert mean == 10.0 and half == 0.0
        mean, half = mean_and_ci([8.0, 12.0])
        assert mean == 10.0 and half > 0
        assert mean_and_ci([]) == (0.0, 0.0)
        assert mean_and_ci([5.0]) == (5.0, 0.0)

    def test_aggregate_result(self):
        a = RunStats(window_start=0.0, window_end=1.0)
        b = RunStats(window_start=0.0, window_end=1.0)
        for _ in range(10):
            a.record_commit("Balance", 0.01, at=0.5)
        for _ in range(20):
            b.record_commit("Balance", 0.01, at=0.5)
        agg = AggregateResult([a, b])
        assert agg.tps == pytest.approx(15.0)
        assert agg.tps_ci > 0
        assert agg.commits_of("Balance") == pytest.approx(15.0)
        assert "TPS" in agg.describe()


class TestThreadedDriver:
    def test_driver_produces_commits(self):
        config = ThreadedDriverConfig(
            mpl=3, customers=50, hotspot=10, duration=0.3, seed=5
        )
        db = build_database(
            EngineConfig.postgres(), PopulationConfig(customers=50)
        )
        driver = ThreadedDriver(
            db, get_strategy("base-si").transactions(), config
        )
        stats = driver.run()
        assert stats.total_commits > 0
        assert stats.mean_response_time > 0
