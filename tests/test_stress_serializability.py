"""Threaded stress tests: MVSG verdicts under real concurrency.

A small hotspot and many client threads hammer the SmallBank mix: under
every fixing strategy — and under the SSI and S2PL engines — all committed
histories must be serializable, every time.  That plain SI does admit a
non-serializable history (the whole point of the paper) does not wait for
a lucky thread timing: the interleaving explorer produces the schedule.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.analysis import (
    InterleavingExplorer,
    ScriptedProgram,
    SerializabilityChecker,
)
from repro.engine import Database, EngineConfig, Session
from repro.errors import ApplicationRollback, TransactionAborted
from repro.smallbank import (
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
    total_money,
)

CUSTOMERS = 4  # tiny hotspot: everyone collides
THREADS = 6
TXNS_PER_THREAD = 30


def run_mix(db: Database, txns, seed: int) -> None:
    """Each thread runs a random SmallBank mix, retrying nothing: aborts
    are simply abandoned (the checker only examines committed history)."""

    def worker(worker_seed: int) -> None:
        rng = random.Random(worker_seed)
        # Per-statement jitter: without it the transactions are so short
        # (microseconds) that threads barely overlap and no interesting
        # interleavings occur.
        jitter = lambda kind, txn: time.sleep(rng.random() * 0.0005)
        for _ in range(TXNS_PER_THREAD):
            session = Session(db, statement_hook=jitter)
            name = customer_name(rng.randint(1, CUSTOMERS))
            other = customer_name(rng.randint(1, CUSTOMERS))
            program = rng.choice(
                ["Balance", "DepositChecking", "TransactSaving",
                 "WriteCheck", "Amalgamate"]
            )
            args = {
                "Balance": {"N": name},
                "DepositChecking": {"N": name, "V": rng.uniform(1, 50)},
                "TransactSaving": {"N": name, "V": rng.uniform(-20, 50)},
                "WriteCheck": {"N": name, "V": rng.uniform(1, 50)},
                "Amalgamate": {"N1": name, "N2": other},
            }[program]
            if program == "Amalgamate" and name == other:
                continue
            try:
                txns.run(session, program, args)
            except (TransactionAborted, ApplicationRollback):
                session.rollback()

    pool = [
        threading.Thread(target=worker, args=(seed * 1000 + i,))
        for i in range(THREADS)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=120)
        assert not thread.is_alive(), "stress worker hung"


def stress(config: EngineConfig, strategy_key: str, seed: int):
    db = build_database(
        config,
        PopulationConfig(customers=CUSTOMERS, min_saving=500.0,
                         max_saving=500.0, min_checking=500.0,
                         max_checking=500.0),
    )
    checker = SerializabilityChecker(db)
    txns = get_strategy(strategy_key).transactions()
    run_mix(db, txns, seed)
    return db, checker.report()


class TestStrategiesUnderRealConcurrency:
    @pytest.mark.parametrize(
        "key",
        [
            "materialize-wt",
            "promote-wt-upd",
            "materialize-bw",
            "promote-bw-upd",
            "materialize-all",
            "promote-all",
        ],
    )
    def test_strategy_keeps_history_serializable_postgres(self, key):
        for seed in (1, 2):
            _db, report = stress(EngineConfig.postgres(), key, seed)
            assert report.serializable, (key, seed, report.describe())
            assert report.committed_count > 0

    @pytest.mark.parametrize("key", ["promote-wt-sfu", "promote-bw-sfu"])
    def test_sfu_strategies_on_commercial(self, key):
        for seed in (1, 2):
            _db, report = stress(EngineConfig.commercial(), key, seed)
            assert report.serializable, (key, seed, report.describe())

    def test_ssi_engine_keeps_history_serializable(self):
        for seed in (1, 2):
            _db, report = stress(EngineConfig.ssi(), "base-si", seed)
            assert report.serializable, (seed, report.describe())

    def test_s2pl_engine_keeps_history_serializable(self):
        _db, report = stress(EngineConfig.s2pl(), "base-si", 3)
        assert report.serializable, report.describe()

    def test_plain_si_eventually_shows_anomalies(self):
        """Under plain SI the real Balance / WriteCheck / TransactSaving of
        one customer have a non-serializable interleaving — otherwise the
        benchmark would not be measuring anything.  It is *shown*, not
        hoped for: the explorer runs every statement-level schedule, and
        the first witness replays to the same verdict."""
        name = customer_name(1)
        bodies = get_strategy("base-si").transactions().body

        def scripted(program: str, args: dict) -> ScriptedProgram:
            return ScriptedProgram(program, lambda s: bodies(program)(s, args))

        explorer = InterleavingExplorer(
            lambda: build_database(
                EngineConfig.postgres(),
                PopulationConfig(customers=1, min_saving=0.0, max_saving=0.0,
                                 min_checking=0.0, max_checking=0.0),
            ),
            [
                scripted("Balance", {"N": name}),
                scripted("WriteCheck", {"N": name, "V": 10.0}),
                scripted("TransactSaving", {"N": name, "V": 20.0}),
            ],
        )
        summary = explorer.explore()
        assert not summary.truncated
        assert summary.non_serializable, summary.describe()
        for outcome in summary.non_serializable:
            assert "dangerous-structure" in outcome.report.anomalies
        replay = explorer.run_schedule(summary.non_serializable[0].choices)
        assert not replay.serializable
        assert "dangerous-structure" in replay.report.anomalies


class TestMoneyConservation:
    def test_deposits_and_transfers_balance_out(self):
        """With only money-conserving programs (no WriteCheck penalties or
        deposits), the total is invariant under any strategy and engine."""
        for key in ("base-si", "promote-all", "materialize-all"):
            db = build_database(
                EngineConfig.postgres(),
                PopulationConfig(customers=CUSTOMERS, min_saving=10_000.0,
                                 max_saving=10_000.0, min_checking=10_000.0,
                                 max_checking=10_000.0),
            )
            before = total_money(db)
            txns = get_strategy(key).transactions()
            rng = random.Random(42)

            def worker() -> None:
                for _ in range(20):
                    session = Session(db)
                    a = customer_name(rng.randint(1, CUSTOMERS))
                    b = customer_name(rng.randint(1, CUSTOMERS))
                    if a == b:
                        continue
                    try:
                        txns.run(session, "Amalgamate", {"N1": a, "N2": b})
                    except (TransactionAborted, ApplicationRollback):
                        session.rollback()

            pool = [threading.Thread(target=worker) for _ in range(4)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
            assert total_money(db) == pytest.approx(before), key
