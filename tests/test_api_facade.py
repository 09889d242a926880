"""Facade parity suite: ``repro.connect`` local vs network backends.

One program of assertions runs against both ``local://`` and ``tcp://``
connections built from identically-seeded databases — the SmallBank
programs must produce bit-identical results either way, errors must
round-trip by class, and how the wire backend ships a transaction (one
``CALL`` per committing program run, a deferred BEGIN on the statement
path) must stay invisible.
"""

import pytest

import repro
from repro.api import connect
from repro.engine import EngineConfig
from repro.errors import (
    ApplicationRollback,
    SchemaError,
    SerializationFailure,
)
from repro.net import DatabaseServer
from repro.smallbank import (
    AMALGAMATE,
    BALANCE,
    DEPOSIT_CHECKING,
    TRANSACT_SAVING,
    WRITE_CHECK,
    PopulationConfig,
    build_database,
    customer_name,
    get_strategy,
)
from repro.sqlmini import PreparedStatement, parse_cache_stats

#: Fixed balances make both backends' results comparable as exact floats.
POPULATION = PopulationConfig(
    customers=10,
    min_saving=1_000.0,
    max_saving=1_000.0,
    min_checking=100.0,
    max_checking=100.0,
)


@pytest.fixture
def local_conn():
    conn = connect(
        "local://", database=build_database(EngineConfig.postgres(), POPULATION)
    )
    yield conn
    conn.close()


@pytest.fixture
def net_conn():
    db = build_database(EngineConfig.postgres(), POPULATION)
    server = DatabaseServer(db).start_in_thread()
    conn = connect(f"tcp://127.0.0.1:{server.port}")
    yield conn
    conn.close()
    server.shutdown()


@pytest.fixture(params=["local", "net"])
def conn(request, local_conn, net_conn):
    return local_conn if request.param == "local" else net_conn


def run_program(conn, program, args):
    txns = get_strategy("base-si").transactions()
    session = conn.session()
    try:
        return txns.run(session, program, args)
    finally:
        session.close()


class TestConnectValidation:
    def test_local_requires_a_database_or_schemas(self):
        with pytest.raises(ValueError):
            connect("local://")

    def test_local_rejects_database_plus_isolation(self):
        db = build_database(EngineConfig.postgres(), POPULATION)
        with pytest.raises(ValueError):
            connect("local://", database=db, isolation="ssi")

    def test_tcp_rejects_local_only_arguments(self):
        db = build_database(EngineConfig.postgres(), POPULATION)
        with pytest.raises(ValueError):
            connect("tcp://127.0.0.1:1", database=db)
        with pytest.raises(ValueError):
            connect("tcp://127.0.0.1:1", isolation="ssi")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            connect("carrier-pigeon://coop")


class TestBackendParity:
    def test_all_five_programs_agree(self, local_conn, net_conn):
        """The same program sequence on identically-seeded databases
        produces identical results and identical final balances."""
        script = [
            (BALANCE, {"N": customer_name(1)}),
            (DEPOSIT_CHECKING, {"N": customer_name(1), "V": 25.0}),
            (TRANSACT_SAVING, {"N": customer_name(2), "V": -300.0}),
            (WRITE_CHECK, {"N": customer_name(3), "V": 1_050.0}),
            (AMALGAMATE, {"N1": customer_name(4), "N2": customer_name(5)}),
            (BALANCE, {"N": customer_name(1)}),
            (BALANCE, {"N": customer_name(5)}),
        ]
        results = {}
        for label, c in (("local", local_conn), ("net", net_conn)):
            results[label] = [
                run_program(c, program, args) for program, args in script
            ]
        assert results["local"] == results["net"]
        # Sanity on the actual values, not just agreement:
        assert results["local"][0] == pytest.approx(1_100.0)
        assert results["local"][5] == pytest.approx(1_125.0)  # after deposit
        assert results["local"][6] == pytest.approx(2_200.0)  # after amalgamate

    def test_application_rollback_parity(self, conn):
        with pytest.raises(ApplicationRollback):
            run_program(conn, DEPOSIT_CHECKING, {"N": customer_name(1), "V": -1.0})
        with pytest.raises(ApplicationRollback):
            run_program(conn, BALANCE, {"N": "nobody-by-that-name"})
        # The rollback left no transaction behind: the next program runs.
        assert run_program(
            conn, BALANCE, {"N": customer_name(1)}
        ) == pytest.approx(1_100.0)

    def test_transaction_context_commits_on_clean_exit(self, conn):
        with conn.transaction() as txn:
            row = txn.select_for_update("Checking", 1)
            txn.write("Checking", 1, {**row, "Balance": 77.0})
        with conn.transaction() as txn:
            assert txn.select("Checking", 1)["Balance"] == 77.0

    def test_transaction_context_rolls_back_on_exception(self, conn):
        with pytest.raises(RuntimeError):
            with conn.transaction() as txn:
                row = txn.select_for_update("Checking", 2)
                txn.write("Checking", 2, {**row, "Balance": -1.0})
                raise RuntimeError("abandon ship")
        with conn.transaction() as txn:
            assert txn.select("Checking", 2)["Balance"] == pytest.approx(100.0)

    def test_server_side_errors_round_trip_by_class(self, conn):
        session = conn.session()
        session.begin("bad")
        with pytest.raises(SchemaError):
            session.write("NoSuchTable", 1, {"Balance": 0.0})
        session.rollback()
        session.close()

    def test_first_updater_wins_round_trips(self, conn):
        """A genuinely engine-raised SerializationFailure (not a client
        check) must surface as the same class over both backends."""
        writer = conn.session()
        victim = conn.session()
        try:
            writer.begin("w1")
            victim.begin("w2")
            # Pin the victim's snapshot *now*: over the wire BEGIN is
            # deferred to the first statement, so without this read the
            # two transactions would not actually be concurrent.
            victim.select("Saving", 2)
            row = writer.select_for_update("Saving", 1)
            writer.write("Saving", 1, {**row, "Balance": 1.0})
            writer.commit()
            with pytest.raises(SerializationFailure):
                stale = victim.select_for_update("Saving", 1)
                victim.write("Saving", 1, {**(stale or {}), "Balance": 2.0})
                victim.commit()
        finally:
            writer.close()
            victim.close()

    def test_ping_and_stats(self, conn):
        assert conn.ping() is True
        stats = conn.stats()
        assert stats["backend"] in ("local", "network")


class TestWireRoundTrips:
    """White-box checks of what the network session puts on the wire."""

    def test_empty_transaction_never_reaches_the_server(self, net_conn):
        session = net_conn.session()
        before = net_conn.stats()["rpcs_total"]
        session.begin("empty")
        session.commit()
        # The deferred BEGIN never left: the delta is the closing STATS
        # read alone.
        assert net_conn.stats()["rpcs_total"] - before == 1
        session.close()

    def test_deposit_takes_one_rpc(self, net_conn):
        """A committing program run is a single CALL frame: begin, the
        body and the commit all happen server-side."""
        txns = get_strategy("base-si").transactions()
        args = {"N": customer_name(6), "V": 5.0}
        session = net_conn.session()
        txns.run(session, DEPOSIT_CHECKING, args)  # registers the program
        before = net_conn.stats()["rpcs_total"]
        txns.run(session, DEPOSIT_CHECKING, args)
        after = net_conn.stats()["rpcs_total"]
        session.close()
        # Delta includes the STATS read closing the measurement.
        assert after - before == 1 + 1

    def test_uncommitted_run_goes_statement_by_statement(self, net_conn):
        """``commit=False`` keeps the transaction open client-side, so it
        takes the statement path (deferred BEGIN on the first one)."""
        txns = get_strategy("base-si").transactions()
        session = net_conn.session()
        txns.run(
            session, DEPOSIT_CHECKING, {"N": customer_name(6), "V": 5.0},
            commit=False,
        )
        assert session.in_transaction
        session.rollback()
        session.close()


class TestParseCacheRegression:
    def test_repeated_execution_does_not_reparse(self, local_conn):
        """The sqlmini parse cache: running the same programs again must
        not miss the cache — per-execution parsing was the facade's
        original hot-path regression."""
        txns = get_strategy("base-si").transactions()
        args = {"N": customer_name(1)}

        def run_mix():
            session = local_conn.session()
            try:
                txns.run(session, BALANCE, args)
                txns.run(session, DEPOSIT_CHECKING, {**args, "V": 1.0})
                txns.run(session, WRITE_CHECK, {**args, "V": 1.0})
            finally:
                session.close()

        run_mix()  # warm the cache with every statement text in the mix
        _, misses_before = parse_cache_stats()
        for _ in range(10):
            run_mix()
        cached, misses_after = parse_cache_stats()
        assert misses_after == misses_before, (
            f"{misses_after - misses_before} re-parses of already-cached "
            f"statements ({cached} texts cached)"
        )
