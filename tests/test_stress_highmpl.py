"""High-MPL threaded stress: MVSG verdicts and money conservation at ≥16
clients (ISSUE 2's lock-free-read engine under real contention).

Complements :mod:`tests.test_stress_serializability` (6 threads) by pushing
the one-latch engine (DESIGN.md §9) to CI's practical thread ceiling and
adding a *shadow ledger*: each worker accumulates the money delta its
committed programs report (DepositChecking +V, TransactSaving +V,
WriteCheck −V or −(V+1) when the overdraft penalty fired,
Balance/Amalgamate 0), and the
final ``total_money`` must match exactly.  That catches lost updates and
torn commits even in runs whose MVSG happens to be acyclic.

The default size is CI-friendly; set ``REPRO_STRESS_FULL=1`` for a longer
soak (more threads, more transactions per thread).
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro.analysis import SerializabilityChecker
from repro.engine import Database, EngineConfig, Session
from repro.errors import ApplicationRollback, TransactionAborted
from repro.smallbank import (
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
    total_money,
)

FULL = os.environ.get("REPRO_STRESS_FULL", "") not in ("", "0")
THREADS = 24 if FULL else 16  # the issue's floor is MPL >= 16
TXNS_PER_THREAD = 30 if FULL else 8
CUSTOMERS = 6  # tiny hotspot: every thread collides constantly


def run_highmpl_mix(db: Database, txns, seed: int) -> tuple[int, float]:
    """Hammer the SmallBank mix from ``THREADS`` client threads.

    Returns ``(committed_programs, ledger_delta)`` where ``ledger_delta``
    is the net amount the committed programs claim to have created.
    Aborted/rolled-back programs contribute nothing — their effects must
    have vanished.
    """
    committed = [0] * THREADS
    deltas = [0.0] * THREADS
    failures: list[BaseException] = []

    def worker(idx: int) -> None:
        rng = random.Random(seed * 10_000 + idx)
        # Per-statement jitter so threads genuinely interleave (the
        # programs alone are microseconds long).
        jitter = lambda kind, txn: time.sleep(rng.random() * 0.0003)
        for _ in range(TXNS_PER_THREAD):
            session = Session(db, statement_hook=jitter)
            name = customer_name(rng.randint(1, CUSTOMERS))
            other = customer_name(rng.randint(1, CUSTOMERS))
            program = rng.choice(
                ["Balance", "DepositChecking", "TransactSaving",
                 "WriteCheck", "Amalgamate"]
            )
            value = round(rng.uniform(1.0, 60.0), 2)
            args = {
                "Balance": {"N": name},
                "DepositChecking": {"N": name, "V": value},
                "TransactSaving": {"N": name, "V": value},
                "WriteCheck": {"N": name, "V": value},
                "Amalgamate": {"N1": name, "N2": other},
            }[program]
            if program == "Amalgamate" and name == other:
                continue
            try:
                result = txns.run(session, program, args)
            except (TransactionAborted, ApplicationRollback):
                session.rollback()
                continue
            except BaseException as exc:  # pragma: no cover - diagnostics
                failures.append(exc)
                session.rollback()
                return
            committed[idx] += 1
            if program in ("DepositChecking", "TransactSaving"):
                deltas[idx] += value
            elif program == "WriteCheck":
                # run() returns True when the V+1 overdraft penalty fired.
                deltas[idx] -= value + 1.0 if result else value

    pool = [
        threading.Thread(target=worker, args=(i,)) for i in range(THREADS)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=300)
        assert not thread.is_alive(), "high-MPL stress worker hung"
    assert not failures, failures
    return sum(committed), sum(deltas)


def stress(config: EngineConfig, strategy_key: str, seed: int):
    db = build_database(
        config,
        PopulationConfig(customers=CUSTOMERS, min_saving=1000.0,
                         max_saving=1000.0, min_checking=1000.0,
                         max_checking=1000.0),
    )
    checker = SerializabilityChecker(db)
    before = total_money(db)
    txns = get_strategy(strategy_key).transactions()
    committed, delta = run_highmpl_mix(db, txns, seed)
    # The shadow ledger must balance under EVERY engine and strategy —
    # even plain SI's anomalies never lose or duplicate a single write.
    assert total_money(db) == pytest.approx(before + delta), (
        config.isolation, strategy_key
    )
    assert committed > THREADS  # the run made real progress
    return checker.report()


SERIALIZABLE_SETUPS = [
    ("s2pl", "base-si"),
    ("ssi", "base-si"),
    ("postgres", "materialize-wt"),
    ("postgres", "promote-wt-upd"),
    ("postgres", "materialize-bw"),
    ("postgres", "promote-bw-upd"),
    ("postgres", "materialize-all"),
    ("postgres", "promote-all"),
    ("commercial", "promote-wt-sfu"),
    ("commercial", "promote-bw-sfu"),
]


class TestHighMplSerializability:
    @pytest.mark.parametrize(
        "engine,strategy",
        SERIALIZABLE_SETUPS,
        ids=[f"{e}-{s}" for e, s in SERIALIZABLE_SETUPS],
    )
    def test_no_mvsg_cycle_and_ledger_conserved(self, engine, strategy):
        config = getattr(EngineConfig, engine)()
        report = stress(config, strategy, seed=11)
        assert report.serializable, (engine, strategy, report.describe())
        assert report.committed_count > THREADS

    def test_plain_si_conserves_money_even_when_not_serializable(self):
        """Plain SI makes no serializability promise at this contention —
        but the ledger (asserted inside ``stress``) must still balance."""
        report = stress(EngineConfig.postgres(), "base-si", seed=11)
        assert report.committed_count > THREADS
