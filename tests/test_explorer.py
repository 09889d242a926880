"""Exhaustive interleaving exploration of the SmallBank anomaly scenario.

These tests model-check *every* statement-level schedule of condensed
Balance / WriteCheck / TransactSaving bodies (no Account lookups, so the
schedule space stays exhaustive-friendly) and establish:

* plain SI admits non-serializable schedules, all classified as the
  read-only-transaction anomaly / dangerous structure;
* each fixing strategy admits none;
* the SSI engine mode admits none either.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis import InterleavingExplorer, ScriptedProgram
from repro.engine import Database, EngineConfig, Session
from repro.sim import SimDeadlock
from repro.smallbank import CHECKING, SAVING, PopulationConfig, build_database

CID = 1


def make_db_factory(config: EngineConfig):
    population = PopulationConfig(
        customers=1,
        min_saving=0.0,
        max_saving=0.0,
        min_checking=0.0,
        max_checking=0.0,
    )

    def factory() -> Database:
        return build_database(config, population)

    return factory


# ----------------------------------------------------------------------
# Condensed program bodies (direct session calls; one gate per statement)
# ----------------------------------------------------------------------


def balance_body(session: Session) -> None:
    session.select(SAVING, CID)
    session.select(CHECKING, CID)


def balance_promoted_body(session: Session) -> None:
    session.identity_update(CHECKING, CID, "Balance")
    session.select(SAVING, CID)
    session.select(CHECKING, CID)


def transact_saving_body(session: Session) -> None:
    session.update(SAVING, CID, lambda row: {"Balance": row["Balance"] + 20.0})


def write_check_body(session: Session) -> None:
    saving = session.select(SAVING, CID)["Balance"]
    checking = session.select(CHECKING, CID)["Balance"]
    debit = 11.0 if saving + checking < 10.0 else 10.0
    session.update(
        CHECKING, CID, lambda row: {"Balance": row["Balance"] - debit}
    )


def write_check_promoted_body(session: Session) -> None:
    session.identity_update(SAVING, CID, "Balance")
    write_check_body(session)


def write_check_sfu_body(session: Session) -> None:
    saving = session.select_for_update(SAVING, CID)["Balance"]
    checking = session.select(CHECKING, CID)["Balance"]
    debit = 11.0 if saving + checking < 10.0 else 10.0
    session.update(
        CHECKING, CID, lambda row: {"Balance": row["Balance"] - debit}
    )


def conflict_touch(session: Session) -> None:
    session.update(
        "Conflict", CID, lambda row: {"Value": row["Value"] + 1},
        kind="materialize-update",
    )


def materialized(body):
    def wrapped(session: Session) -> None:
        conflict_touch(session)
        body(session)

    return wrapped


def broken_body(session: Session) -> None:
    session.update(CHECKING, CID, lambda row: {"Balance": row["Balance"] + 1.0})
    raise RuntimeError("broken program")


def stuck_body(session: Session) -> None:
    """Waits on a transaction outside the schedule, which never ends."""
    holder = Session(session.db)
    holder.begin("holder")
    holder.update(CHECKING, CID, lambda row: {"Balance": 1.0})
    session.update(CHECKING, CID, lambda row: {"Balance": 2.0})


BAL = ScriptedProgram("Balance", balance_body)
TS = ScriptedProgram("TransactSaving", transact_saving_body)
WC = ScriptedProgram("WriteCheck", write_check_body)


def explore(config: EngineConfig, programs, max_schedules=20_000):
    summary = InterleavingExplorer(
        make_db_factory(config), programs, max_schedules=max_schedules
    ).explore()
    # Whatever an engine admits stays SI (Cerone & Gotsman): every
    # non-serializable schedule is one of plain SI's own anomalies.
    assert all(o.report.snapshot_isolated for o in summary.non_serializable)
    return summary


class TestExplorerMechanics:
    def test_single_program_has_one_schedule(self):
        summary = explore(EngineConfig.postgres(), [BAL])
        assert summary.schedules == 1
        assert summary.all_serializable

    def test_two_readers_schedule_count(self):
        """Reads are not scheduling points under SI (sound reduction), so
        two read-only programs have one gate each (begin): 2 schedules."""
        summary = explore(EngineConfig.postgres(), [BAL, BAL])
        assert summary.schedules == 2
        assert summary.all_serializable

    def test_read_gates_can_be_enabled(self):
        """With reads gated, two 3-gate programs give C(6,3) = 20."""
        from repro.analysis.explorer import DEFAULT_GATE_KINDS

        summary = InterleavingExplorer(
            make_db_factory(EngineConfig.postgres()),
            [BAL, BAL],
            gate_kinds=DEFAULT_GATE_KINDS | {"select"},
        ).explore()
        assert summary.schedules == 20
        assert summary.all_serializable

    def test_truncation_flag(self):
        summary = explore(
            EngineConfig.postgres(), [BAL, WC], max_schedules=3
        )
        assert summary.truncated
        assert summary.schedules == 3

    def test_deterministic_replay(self):
        explorer = InterleavingExplorer(
            make_db_factory(EngineConfig.postgres()), [BAL, WC]
        )
        first = explorer.run_schedule((1, 0, 1))
        second = explorer.run_schedule((1, 0, 1))
        assert first.choices == second.choices
        assert first.report.serializable == second.report.serializable

    @pytest.mark.parametrize(
        "body, error, match",
        [
            (broken_body, RuntimeError, "broken program"),
            (stuck_body, SimDeadlock, r"blocked: \['Failing'"),
        ],
        ids=["own-exception", "wait-nothing-ends"],
    )
    def test_a_program_that_cannot_finish_raises_and_leaves_no_thread(
        self, body, error, match
    ):
        """A program's own exception (not an abort), or a lock wait no
        step can end, comes out of run_schedule, and the programs parked
        beside it are stopped."""
        explorer = InterleavingExplorer(
            make_db_factory(EngineConfig.postgres()),
            [ScriptedProgram("Failing", body), WC, TS],
        )
        before = threading.active_count()
        with pytest.raises(error, match=match):
            explorer.run_schedule((0, 0, 0))
        assert threading.active_count() == before


class TestPlainSiAdmitsTheAnomaly:
    def test_exhaustive_three_transaction_scenario(self):
        """7 steps over 3 programs: 7!/(1!3!3!) = 140 schedules, all run."""
        summary = explore(EngineConfig.postgres(), [BAL, WC, TS])
        assert not summary.truncated
        assert summary.schedules == 140
        assert not summary.all_serializable
        # Every bad schedule is the read-only anomaly / dangerous structure.
        assert set(summary.anomaly_counts) <= {
            "read-only-transaction-anomaly",
            "dangerous-structure",
            "write-skew",
        }
        assert summary.anomaly_counts.get("dangerous-structure", 0) > 0

    def test_wc_ts_pair_alone_is_always_serializable(self):
        """Without the read-only Balance there is no cycle (Section III-C:
        the dangerous structure needs Bal as the vulnerable in-edge)."""
        summary = explore(EngineConfig.postgres(), [WC, TS])
        assert not summary.truncated
        assert summary.all_serializable


class TestStrategiesCloseEverySchedule:
    def test_promote_wt_upd(self):
        wc = ScriptedProgram("WriteCheck", write_check_promoted_body)
        summary = explore(EngineConfig.postgres(), [BAL, wc, TS])
        assert not summary.truncated
        assert summary.all_serializable

    def test_materialize_wt(self):
        wc = ScriptedProgram("WriteCheck", materialized(write_check_body))
        ts = ScriptedProgram(
            "TransactSaving", materialized(transact_saving_body)
        )
        summary = explore(EngineConfig.postgres(), [BAL, wc, ts])
        assert not summary.truncated
        assert summary.all_serializable

    def test_promote_bw_upd(self):
        bal = ScriptedProgram("Balance", balance_promoted_body)
        summary = explore(EngineConfig.postgres(), [bal, WC, TS])
        assert not summary.truncated
        assert summary.all_serializable

    def test_materialize_bw(self):
        bal = ScriptedProgram("Balance", materialized(balance_body))
        wc = ScriptedProgram("WriteCheck", materialized(write_check_body))
        summary = explore(EngineConfig.postgres(), [bal, wc, TS])
        assert not summary.truncated
        assert summary.all_serializable

    def test_promote_wt_sfu(self):
        """SFU promotion closes every schedule of THIS scenario on both
        engines.  (On PostgreSQL the *static* guarantee is still absent —
        the vulnerable interleaving ``read-sfu commit write commit``
        remains possible, see test_anomalies — but in the SmallBank
        dangerous structure that interleaving forces WriteCheck to commit
        before TransactSaving, which breaks the cycle: Balance can no
        longer see TS without also seeing WC.)"""
        wc = ScriptedProgram("WriteCheck", write_check_sfu_body)
        commercial = explore(EngineConfig.commercial(), [BAL, wc, TS])
        assert not commercial.truncated
        assert commercial.all_serializable
        postgres = explore(EngineConfig.postgres(), [BAL, wc, TS])
        assert not postgres.truncated
        assert postgres.all_serializable

    def test_ssi_engine_closes_every_schedule(self):
        summary = explore(EngineConfig.ssi(), [BAL, WC, TS])
        assert not summary.truncated
        assert summary.all_serializable

    def test_s2pl_engine_closes_every_schedule(self):
        summary = explore(EngineConfig.s2pl(), [BAL, WC, TS])
        assert not summary.truncated
        assert summary.all_serializable


class TestRealSmallBankPrograms:
    """The same exhaustive exploration over the actual mini-SQL programs
    (Account lookups, SELECT INTO chains, strategy-injected statements) —
    not the condensed bodies above.  Reads are not scheduling points, so
    the schedule space is identical and stays exhaustive."""

    def scenario(self, strategy_key: str):
        from repro.smallbank import customer_name, get_strategy

        txns = get_strategy(strategy_key).transactions()
        name = customer_name(CID)
        return [
            ScriptedProgram(
                "Balance", lambda s: txns.balance(s, {"N": name})
            ),
            ScriptedProgram(
                "WriteCheck",
                lambda s: txns.write_check(s, {"N": name, "V": 10.0}),
            ),
            ScriptedProgram(
                "TransactSaving",
                lambda s: txns.transact_saving(s, {"N": name, "V": 20.0}),
            ),
        ]

    def test_base_si_admits_exactly_the_read_only_anomaly(self):
        summary = explore(EngineConfig.postgres(), self.scenario("base-si"))
        assert not summary.truncated
        assert not summary.all_serializable
        assert set(summary.anomaly_counts) == {
            "read-only-transaction-anomaly",
            "dangerous-structure",
        }

    def test_promote_wt_upd_closes_every_schedule(self):
        summary = explore(
            EngineConfig.postgres(), self.scenario("promote-wt-upd")
        )
        assert not summary.truncated
        assert summary.all_serializable

    def test_materialize_bw_closes_every_schedule(self):
        summary = explore(
            EngineConfig.postgres(), self.scenario("materialize-bw")
        )
        assert not summary.truncated
        assert summary.all_serializable

    def test_promote_wt_sfu_closes_every_schedule_on_commercial(self):
        summary = explore(
            EngineConfig.commercial(), self.scenario("promote-wt-sfu")
        )
        assert not summary.truncated
        assert summary.all_serializable
