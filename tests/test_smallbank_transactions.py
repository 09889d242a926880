"""Behavioural tests for the five SmallBank programs (paper Section III-B)."""

from __future__ import annotations

import pytest

from repro.engine import Database, Session
from repro.errors import ApplicationRollback
from repro.smallbank import (
    CHECKING,
    CONFLICT,
    SAVING,
    PopulationConfig,
    SmallBankTransactions,
    build_database,
    customer_name,
    get_strategy,
    total_money,
)


def fixed_db(customers: int = 4) -> Database:
    population = PopulationConfig(
        customers=customers,
        min_saving=100.0,
        max_saving=100.0,
        min_checking=50.0,
        max_checking=50.0,
    )
    return build_database(population=population)


@pytest.fixture
def db() -> Database:
    return fixed_db()


@pytest.fixture
def txns() -> SmallBankTransactions:
    return SmallBankTransactions()


def run(db, txns, program, args):
    session = Session(db)
    return txns.run(session, program, args)


def balances(db, cid) -> tuple[float, float]:
    session = Session(db)
    session.begin()
    saving = session.select(SAVING, cid)["Balance"]
    checking = session.select(CHECKING, cid)["Balance"]
    session.commit()
    return saving, checking


class TestBalance:
    def test_returns_total(self, db, txns):
        total = run(db, txns, "Balance", {"N": customer_name(1)})
        assert total == 150.0

    def test_unknown_name_rolls_back(self, db, txns):
        with pytest.raises(ApplicationRollback):
            run(db, txns, "Balance", {"N": "nobody"})

    def test_is_read_only(self, db, txns):
        run(db, txns, "Balance", {"N": customer_name(1)})
        assert len(db.wal) == 0


class TestDepositChecking:
    def test_deposit_increases_checking(self, db, txns):
        run(db, txns, "DepositChecking", {"N": customer_name(1), "V": 25.0})
        assert balances(db, 1) == (100.0, 75.0)

    def test_negative_deposit_rolls_back(self, db, txns):
        with pytest.raises(ApplicationRollback):
            run(db, txns, "DepositChecking", {"N": customer_name(1), "V": -1.0})
        assert balances(db, 1) == (100.0, 50.0)

    def test_unknown_name_rolls_back(self, db, txns):
        with pytest.raises(ApplicationRollback):
            run(db, txns, "DepositChecking", {"N": "nobody", "V": 5.0})


class TestTransactSaving:
    def test_deposit(self, db, txns):
        run(db, txns, "TransactSaving", {"N": customer_name(2), "V": 10.0})
        assert balances(db, 2) == (110.0, 50.0)

    def test_withdrawal(self, db, txns):
        run(db, txns, "TransactSaving", {"N": customer_name(2), "V": -40.0})
        assert balances(db, 2) == (60.0, 50.0)

    def test_overdraw_rolls_back(self, db, txns):
        with pytest.raises(ApplicationRollback):
            run(db, txns, "TransactSaving", {"N": customer_name(2), "V": -100.5})
        assert balances(db, 2) == (100.0, 50.0)

    def test_exact_zero_is_allowed(self, db, txns):
        run(db, txns, "TransactSaving", {"N": customer_name(2), "V": -100.0})
        assert balances(db, 2) == (0.0, 50.0)


class TestAmalgamate:
    def test_moves_all_funds(self, db, txns):
        run(
            db,
            txns,
            "Amalgamate",
            {"N1": customer_name(1), "N2": customer_name(2)},
        )
        assert balances(db, 1) == (0.0, 0.0)
        assert balances(db, 2) == (100.0, 200.0)

    def test_conserves_money(self, db, txns):
        before = total_money(db)
        run(
            db,
            txns,
            "Amalgamate",
            {"N1": customer_name(3), "N2": customer_name(4)},
        )
        assert total_money(db) == before

    def test_unknown_second_name_rolls_back(self, db, txns):
        with pytest.raises(ApplicationRollback):
            run(
                db,
                txns,
                "Amalgamate",
                {"N1": customer_name(1), "N2": "nobody"},
            )
        assert balances(db, 1) == (100.0, 50.0)


class TestWriteCheck:
    def test_sufficient_funds_debit_without_penalty(self, db, txns):
        penalized = run(
            db, txns, "WriteCheck", {"N": customer_name(1), "V": 120.0}
        )
        assert penalized is False
        # Check is written against checking even when it overdraws it;
        # penalty only applies when total (saving+checking) is short.
        assert balances(db, 1) == (100.0, -70.0)

    def test_insufficient_total_charges_penalty(self, db, txns):
        penalized = run(
            db, txns, "WriteCheck", {"N": customer_name(1), "V": 151.0}
        )
        assert penalized is True
        assert balances(db, 1) == (100.0, 50.0 - 152.0)

    def test_boundary_equal_total_no_penalty(self, db, txns):
        penalized = run(
            db, txns, "WriteCheck", {"N": customer_name(1), "V": 150.0}
        )
        assert penalized is False

    def test_unknown_name_rolls_back(self, db, txns):
        with pytest.raises(ApplicationRollback):
            run(db, txns, "WriteCheck", {"N": "nobody", "V": 10.0})


class TestStrategyInjectedStatements:
    def test_materialize_wt_touches_conflict(self, db):
        txns = get_strategy("materialize-wt").transactions()
        run(db, txns, "WriteCheck", {"N": customer_name(1), "V": 10.0})
        run(db, txns, "TransactSaving", {"N": customer_name(1), "V": 5.0})
        session = Session(db)
        session.begin()
        assert session.select(CONFLICT, 1)["Value"] == 2
        # Balance is untouched by the WT option.
        run(db, txns, "Balance", {"N": customer_name(2)})
        assert session.select(CONFLICT, 2)["Value"] == 0

    def test_promote_wt_adds_identity_write_in_writecheck(self, db):
        txns = get_strategy("promote-wt-upd").transactions()
        run(db, txns, "WriteCheck", {"N": customer_name(1), "V": 10.0})
        chain = db.catalog.table(SAVING).chain(1)
        assert len(chain) == 2  # bootstrap + identity version
        assert chain.latest().value["Balance"] == 100.0

    def test_promote_bw_makes_balance_an_updater(self, db):
        txns = get_strategy("promote-bw-upd").transactions()
        total = run(db, txns, "Balance", {"N": customer_name(1)})
        assert total == 150.0
        assert len(db.wal.records_for("Balance")) == 1

    def test_base_balance_stays_read_only(self, db):
        txns = get_strategy("base-si").transactions()
        run(db, txns, "Balance", {"N": customer_name(1)})
        assert len(db.wal) == 0

    def test_promote_all_balance_writes_both_tables(self, db):
        txns = get_strategy("promote-all").transactions()
        run(db, txns, "Balance", {"N": customer_name(1)})
        (record,) = db.wal.records_for("Balance")
        tables = {table for table, _key in record.rows}
        assert tables == {SAVING, CHECKING}

    def test_materialize_all_amalgamate_touches_two_conflict_rows(self, db):
        txns = get_strategy("materialize-all").transactions()
        run(
            db,
            txns,
            "Amalgamate",
            {"N1": customer_name(1), "N2": customer_name(2)},
        )
        session = Session(db)
        session.begin()
        assert session.select(CONFLICT, 1)["Value"] == 1
        assert session.select(CONFLICT, 2)["Value"] == 1

    def test_rewrite_is_derived_once_and_runs_share_no_statement(self, monkeypatch):
        strategy = get_strategy("promote-all")
        first = strategy.transactions()
        monkeypatch.setattr(
            type(strategy), "apply", lambda *a: pytest.fail("rewrite derived again")
        )
        second = strategy.transactions()
        assert strategy.modifications() is first.modifications
        assert second.modifications is first.modifications
        assert second is not first
        assert not {id(c) for c in first._calls.values()} & {
            id(c) for c in second._calls.values()
        }

    def test_sfu_strategy_uses_select_for_update(self, db):
        txns = get_strategy("promote-wt-sfu").transactions()
        session = Session(db)
        session.begin("WriteCheck")
        txns.write_check(session, {"N": customer_name(1), "V": 10.0})
        assert (SAVING, 1) in session.transaction.sfu_rows
        session.commit()

    def test_all_strategies_preserve_program_semantics(self):
        """Every variant computes the same results as unmodified SmallBank."""
        for strategy in (
            "base-si",
            "materialize-wt",
            "promote-wt-upd",
            "promote-wt-sfu",
            "materialize-bw",
            "promote-bw-upd",
            "promote-bw-sfu",
            "materialize-all",
            "promote-all",
        ):
            db = fixed_db()
            txns = get_strategy(strategy).transactions()
            run(db, txns, "DepositChecking", {"N": customer_name(1), "V": 10.0})
            run(db, txns, "TransactSaving", {"N": customer_name(1), "V": -30.0})
            penalized = run(
                db, txns, "WriteCheck", {"N": customer_name(1), "V": 100.0}
            )
            total = run(db, txns, "Balance", {"N": customer_name(1)})
            run(
                db,
                txns,
                "Amalgamate",
                {"N1": customer_name(1), "N2": customer_name(2)},
            )
            assert penalized is False, strategy
            assert total == pytest.approx(30.0), strategy  # 70 + (-40)
            assert balances(db, 2) == (100.0, 80.0), strategy
