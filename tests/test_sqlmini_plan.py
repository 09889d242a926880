"""Prepared statements plan once: pinned verb sequences, the plan cache,
plan-time rejections and a count-based guard against per-call planning."""

from __future__ import annotations

import sys
import threading

import pytest

import repro
from repro.engine import Column, Database, Session, TableSchema
from repro.errors import (
    ConnectionClosed,
    ProtocolError,
    SqlError,
    TransactionStateError,
)
from repro.net import DatabaseServer
from repro.net.client import WireConnection
from repro.smallbank import build_database, customer_name
from repro.smallbank import transactions as smallbank
from repro.smallbank.schema import PopulationConfig
from repro.sqlmini import PreparedStatement, ast, executor


class RecordingSession:
    """Forwards to a real session, noting ``(verb, table, *args, kind)``
    for every statement verb — what the simulator's cost hook, the
    recorder and the benchmark's tracing proxies get to see."""

    def __init__(self, session: Session) -> None:
        self._session = session
        self.db = session.db
        self.calls: list[tuple] = []

    def __getattr__(self, verb: str):
        real = getattr(self._session, verb)

        def call(table, *args, **kwargs):
            plain = tuple(arg for arg in args if not callable(arg))
            self.calls.append((verb, table, *plain, kwargs.get("kind")))
            return real(table, *args, **kwargs)

        return call


@pytest.fixture(scope="module")
def bank() -> Database:
    return build_database(population=PopulationConfig(customers=5))


def run_recorded(bank: Database, statement: PreparedStatement, params: dict):
    session = RecordingSession(Session(bank))
    session._session.begin("pin")
    try:
        result = statement.execute(session, params)
    finally:
        session._session.rollback()
    return session.calls, result.rowcount


# ----------------------------------------------------------------------
# (b) Verb sequences, captured at the commit before statements were planned
# ----------------------------------------------------------------------
NAME, NAME_2 = customer_name(2), customer_name(3)

#: statement -> (table, verb and kind when the WHERE is just the key)
SMALLBANK = {
    "GET_ACCOUNT": ("Account", "select", "select"),
    "GET_ACCOUNT_2": ("Account", "select", "select"),
    "GET_SAVING": ("Saving", "select", "select"),
    "GET_SAVING_SFU": ("Saving", "select_for_update", "select-for-update"),
    "GET_CHECKING": ("Checking", "select", "select"),
    "GET_CHECKING_SFU": ("Checking", "select_for_update", "select-for-update"),
    "ADD_SAVING": ("Saving", "update", "update"),
    "ADD_CHECKING": ("Checking", "update", "update"),
    "DEBIT_CHECKING": ("Checking", "update", "update"),
    "DEBIT_CHECKING_PENALTY": ("Checking", "update", "update"),
    "ZERO_SAVING": ("Saving", "update", "update"),
    "ZERO_CHECKING": ("Checking", "update", "update"),
    "IDENTITY_SAVING": ("Saving", "update", "identity-update"),
    "IDENTITY_CHECKING": ("Checking", "update", "identity-update"),
    "TOUCH_CONFLICT": ("Conflict", "update", "materialize-update"),
}
FALSE_CONJUNCT = {"Account": "CustomerId < 0", "Conflict": "Value < 0"}


def with_false_residual(statement: PreparedStatement) -> PreparedStatement:
    """The same statement with one more conjunct no row satisfies."""
    sql, tail = statement.sql, ""
    if sql.endswith(" FOR UPDATE"):
        sql, tail = sql[: -len(" FOR UPDATE")], " FOR UPDATE"
    extra = FALSE_CONJUNCT.get(statement.statement.table, "Balance < 0")
    return PreparedStatement(f"{sql} AND {extra}{tail}", kind=statement.kind)


@pytest.mark.parametrize("name", sorted(SMALLBANK))
@pytest.mark.parametrize("case", ["found", "missing", "residual-false"])
def test_smallbank_statement_verb_sequence(bank, name, case):
    table, verb, kind = SMALLBANK[name]
    statement = getattr(smallbank, name)
    found = case != "missing"
    params = {
        "N": NAME if found else "nobody",
        "N2": NAME_2 if found else "nobody",
        "x": 2 if found else 404,
        "V": 1.5,
    }
    if table == "Account":
        key = params["N2" if name == "GET_ACCOUNT_2" else "N"]
    else:
        key = params["x"]
    if case == "residual-false":
        statement = with_false_residual(statement)
        if verb == "update":
            # Not a pure key update any more: the row is read (priced as
            # a scan), fails the residual, and nothing is written.
            verb, kind = "select", "scan"
    calls, rowcount = run_recorded(bank, statement, params)
    assert calls == [(verb, table, key, kind)]
    assert rowcount == (1 if case == "found" else 0)
    for var in getattr(statement.statement, "into", ()):
        if case == "found":
            assert params[var] is not None
        else:
            assert params[var] is None


OTHER_PATHS = [
    (
        "SELECT Name FROM Account WHERE CustomerId = :x",
        [("lookup_unique", "Account", "CustomerId", 2, "select")],
        1,
    ),
    (
        "SELECT Name FROM Account WHERE CustomerId = :x FOR UPDATE",
        [
            ("lookup_unique", "Account", "CustomerId", 2, "select-for-update"),
            ("select_for_update", "Account", NAME, None),
        ],
        1,
    ),
    (
        "SELECT Name FROM Account WHERE CustomerId = :x AND Name = 'nobody'",
        [("select", "Account", "nobody", "select")],
        0,
    ),
    (
        "SELECT Name FROM Account WHERE CustomerId = :x AND Name != :N",
        [("lookup_unique", "Account", "CustomerId", 2, "select")],
        0,
    ),
    ("SELECT CustomerId FROM Saving WHERE Balance < 0", [("scan", "Saving", "scan")], 0),
    (
        "SELECT CustomerId FROM Saving WHERE CustomerId > 3 FOR UPDATE",
        [
            ("scan", "Saving", "scan"),
            ("select_for_update", "Saving", 4, None),
            ("select_for_update", "Saving", 5, None),
        ],
        2,
    ),
    (
        "UPDATE Saving SET Balance = 0 WHERE CustomerId > 4",
        [("scan", "Saving", "scan"), ("update", "Saving", 5, "update")],
        1,
    ),
    (
        "DELETE FROM Conflict WHERE Id = :x",
        [("select", "Conflict", 2, "delete"), ("delete", "Conflict", 2, "delete")],
        1,
    ),
    (
        "DELETE FROM Account WHERE CustomerId = :x",
        [
            ("lookup_unique", "Account", "CustomerId", 2, "delete"),
            ("delete", "Account", NAME, "delete"),
        ],
        1,
    ),
    (
        "INSERT INTO Conflict (Id, Value) VALUES (:x + 900, 0)",
        [("insert", "Conflict", {"Id": 902, "Value": 0}, "insert")],
        1,
    ),
]


@pytest.mark.parametrize("sql,calls,rowcount", OTHER_PATHS)
def test_other_access_paths_verb_sequence(bank, sql, calls, rowcount):
    assert run_recorded(bank, PreparedStatement(sql), {"x": 2, "N": NAME}) == (
        calls,
        rowcount,
    )


def test_unique_column_select_for_update_is_charged_once(bank):
    """The lookup is the statement's one charge; the row lock it then
    takes is not a second statement.  A scan ``FOR UPDATE`` is charged
    for the scan and once per row it locks."""
    fired = []
    session = Session(bank, statement_hook=lambda kind, txn: fired.append(kind))
    session.begin("sfu")
    params = {"x": 2}
    PreparedStatement(
        "SELECT Name INTO :n FROM Account WHERE CustomerId = :x FOR UPDATE"
    ).execute(session, params)
    assert fired == ["select-for-update"] and params["n"] == NAME
    fired.clear()
    PreparedStatement(
        "SELECT CustomerId FROM Saving WHERE CustomerId > 3 FOR UPDATE"
    ).execute(session, {})
    assert fired == ["scan", "select-for-update", "select-for-update"]
    session.rollback()


def test_update_with_a_second_key_conjunct_checks_it(bank):
    """``pk = :x AND pk > 3`` used to update row :x whatever the second
    conjunct said (any WHERE naming only the key went straight to
    ``session.update``)."""
    statement = PreparedStatement(
        "UPDATE Saving SET Balance = 0 WHERE CustomerId = :x AND CustomerId > 3"
    )
    assert run_recorded(bank, statement, {"x": 2}) == (
        [("select", "Saving", 2, "scan")],
        0,
    )
    assert run_recorded(bank, statement, {"x": 4})[1] == 1


# ----------------------------------------------------------------------
# Plan-time rejections
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["local", "tcp"])
def test_unknown_select_column_is_a_sql_error(scheme):
    db = build_database(population=PopulationConfig(customers=5))
    server = DatabaseServer(db).start_in_thread() if scheme == "tcp" else None
    url = f"tcp://127.0.0.1:{server.port}" if server else "local://"
    try:
        with repro.connect(url, **({} if server else {"database": db})) as conn:
            before = conn.stats().get("protocol_errors_total")
            session = conn.session()
            session.begin("bad")
            for _ in range(2):  # the failed plan is not cached as good
                with pytest.raises(SqlError, match="unknown column 'Nope'"):
                    PreparedStatement(
                        "SELECT Nope INTO :a FROM Account WHERE Name = :N"
                    ).execute(session, {"N": NAME})
            # Same transaction, same wire: still usable (a discarded
            # wire would leave the session closed).
            params = {"N": NAME}
            smallbank.GET_ACCOUNT.execute(session, params)
            assert params["x"] == 2
            session.commit()
            session.close()
            assert conn.stats().get("protocol_errors_total") == before
    finally:
        if server:
            server.shutdown()


def test_select_star_into_counts_the_expanded_columns(bank):
    session = Session(bank)
    session.begin("star")
    with pytest.raises(SqlError, match="SELECT INTO variable/column count mismatch"):
        PreparedStatement(
            "SELECT * INTO :a FROM Saving WHERE CustomerId = 2"
        ).execute(session, {})
    params: dict = {}
    PreparedStatement(
        "SELECT * INTO :id, :bal FROM Saving WHERE CustomerId = 2"
    ).execute(session, params)
    assert params["id"] == 2 and params["bal"] is not None
    session.rollback()


# ----------------------------------------------------------------------
# (c) Plan cache
# ----------------------------------------------------------------------
def _thing_database(primary_key: str, unique: tuple = ()) -> Database:
    schema = TableSchema(
        name="Thing",
        columns=(Column("A", "int"), Column("B", "int")),
        primary_key=primary_key,
        unique=unique,
    )
    db = Database([schema])
    for row in ({"A": 1, "B": 10}, {"A": 2, "B": 20}):
        db.load_row("Thing", row)
    return db


def test_one_statement_two_schemas_takes_the_right_path_on_each():
    statement = PreparedStatement("SELECT A, B FROM Thing WHERE B = :b")
    by_a = _thing_database("A")
    by_b = _thing_database("B")
    by_a_unique_b = _thing_database("A", unique=("B",))
    expect = {
        id(by_a): [("scan", "Thing", "scan")],
        id(by_b): [("select", "Thing", 20, "select")],
        id(by_a_unique_b): [("lookup_unique", "Thing", "B", 20, "select")],
    }
    for db in (by_a, by_b, by_a_unique_b, by_b, by_a):
        session = RecordingSession(Session(db))
        session._session.begin("x")
        result = statement.execute(session, {"b": 20})
        assert result.rows == [{"A": 2, "B": 20}]
        assert session.calls == expect[id(db)]


def test_equal_schemas_share_one_plan(monkeypatch):
    """Every database builds its own schema objects; same-shaped ones
    (the shards of an in-process cluster) must not replan in turns."""
    statement = PreparedStatement("SELECT B FROM Thing WHERE A = :a")
    plans = []
    real = executor._plan
    monkeypatch.setattr(
        executor, "_plan", lambda *args: plans.append(args) or real(*args)
    )
    for db in (_thing_database("A"), _thing_database("A")) * 3:
        session = Session(db)
        session.begin("x")
        assert statement.execute(session, {"a": 1}).first == {"B": 10}
    assert len(plans) == 1


def test_an_equal_schema_is_compared_once_per_database(monkeypatch):
    """A statement planned on one database and then run against another
    of the same shape compares the two schemas by value on its first
    execution there, not on every one (``TableSchema.__eq__`` is a
    field-by-field dataclass comparison)."""
    statement = PreparedStatement("SELECT B FROM Thing WHERE A = :a")
    first, second = _thing_database("A"), _thing_database("A")
    session = Session(first)
    session.begin("x")
    statement.execute(session, {"a": 1})
    compared = []
    real = TableSchema.__eq__
    monkeypatch.setattr(
        TableSchema,
        "__eq__",
        lambda self, other: compared.append(other) or real(self, other),
    )
    session = Session(second)
    session.begin("x")
    for _ in range(50):
        assert statement.execute(session, {"a": 2}).first == {"B": 20}
    assert len(compared) <= 1


def test_concurrent_first_execution(bank):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            statement = PreparedStatement(
                "SELECT Balance INTO :a FROM Saving WHERE CustomerId = :x"
            )
            barrier = threading.Barrier(4)
            results: list = []

            def first_execute():
                session = Session(bank)
                session.begin("race")
                params = {"x": 2}
                barrier.wait(timeout=10)
                statement.execute(session, params)
                results.append(params["a"])
                session.rollback()

            threads = [threading.Thread(target=first_execute) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == 4 and len(set(results)) == 1
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# (d) Planning happens once (counts, not time)
# ----------------------------------------------------------------------
def test_warm_statements_do_no_planning_work(bank, monkeypatch):
    counts = {"equality_key": 0, "columns_in": 0, "parse": 0, "compile_expr": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    statements = [getattr(smallbank, name) for name in SMALLBANK]
    session = Session(bank)
    session.begin("warm")
    params = {"N": NAME, "N2": NAME_2, "x": 2, "V": 1.0}
    for statement in statements:
        statement.execute(session, dict(params))
    for module in (ast, executor):
        for name in counts:
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name, counted(name, getattr(module, name))
                )
    for _ in range(1000):
        for statement in statements:
            statement.execute(session, dict(params))
    session.rollback()
    assert counts == {"equality_key": 0, "columns_in": 0, "parse": 0, "compile_expr": 0}


def test_key_error_inside_a_program_is_not_a_missing_request_field():
    """Only a field missing from the *request* is a protocol error; a
    ``KeyError`` escaping the program it runs is a server-side failure
    like any other (the connection is dropped, nothing stays open)."""
    db = build_database(population=PopulationConfig(customers=5))
    server = DatabaseServer(db).start_in_thread()
    try:
        with repro.connect(f"tcp://127.0.0.1:{server.port}") as conn:
            program = smallbank.SmallBankTransactions()._calls["Balance"].statement
            session = conn.session()
            with pytest.raises(ConnectionClosed):
                session.call_program(program.program, {}, "Balance")  # no "N"
            stats = conn.stats()
            assert stats["protocol_errors_total"] == 0
            assert stats["active_transactions"] == 0
            wire = WireConnection("127.0.0.1", server.port)
            with pytest.raises(ProtocolError, match="CALL is missing field 'pid'"):
                wire.call("CALL", {})
            wire.close()
            assert conn.stats()["protocol_errors_total"] == 1
    finally:
        server.shutdown()


# ----------------------------------------------------------------------
# (e) What a key statement's single runner frame keeps
# ----------------------------------------------------------------------
#: The five statement kinds a SmallBank program fires, one statement each.
FIVE_KINDS = [
    ("GET_SAVING", "select"),
    ("GET_CHECKING_SFU", "select-for-update"),
    ("ADD_CHECKING", "update"),
    ("IDENTITY_SAVING", "identity-update"),
    ("TOUCH_CONFLICT", "materialize-update"),
]


@pytest.mark.parametrize("name", ["GET_SAVING", "GET_SAVING_SFU", "ADD_CHECKING"])
def test_an_unbound_key_parameter_is_a_sql_error(bank, name):
    session = Session(bank)
    session.begin("unbound")
    with pytest.raises(SqlError, match="unbound parameter :x"):
        getattr(smallbank, name).execute(session, {"V": 1.0})
    session.rollback()


def test_an_unbound_assignment_parameter_is_a_sql_error(bank):
    session = Session(bank)
    session.begin("unbound")
    with pytest.raises(SqlError, match="unbound parameter :V"):
        smallbank.ADD_CHECKING.execute(session, {"x": 2})
    session.rollback()


@pytest.mark.parametrize("name", ["GET_SAVING", "GET_SAVING_SFU"])
def test_a_missing_row_unbinds_every_into_variable(bank, name):
    session = Session(bank)
    session.begin("missing")
    params = {"x": 404, "a": "stale"}
    result = getattr(smallbank, name).execute(session, params)
    assert (result.rows, result.rowcount, result.first) == ([], 0, None)
    assert params["a"] is None
    params = {"x": 3}
    result = PreparedStatement(
        "SELECT * INTO :id, :bal FROM Saving WHERE CustomerId = :x"
    ).execute(session, params)
    assert result.rowcount == 1 and result.rows == [{"CustomerId": 3, "Balance": params["bal"]}]
    session.rollback()


def test_a_missing_row_updates_nothing(bank):
    session = Session(bank)
    session.begin("missing")
    result = smallbank.ADD_CHECKING.execute(session, {"x": 404, "V": 1.0})
    assert (result.rows, result.rowcount) == ([], 0)
    assert not session.txn.writes
    session.rollback()


@pytest.mark.parametrize("name", [name for name, _ in FIVE_KINDS])
def test_no_transaction_raises_before_the_hook(bank, name):
    fired = []
    session = Session(bank, statement_hook=lambda kind, txn: fired.append(kind))
    with pytest.raises(TransactionStateError):
        getattr(smallbank, name).execute(session, {"x": 2, "V": 1.0})
    assert fired == []


def test_the_hook_fires_once_per_statement_before_the_engine(bank):
    """Kinds and order as the simulator prices them; each fire sees the
    transaction's footprint from the statements before it only."""
    fired = []
    session = Session(
        bank,
        statement_hook=lambda kind, txn: fired.append(
            (kind, len(txn.reads), len(txn.writes))
        ),
    )
    session.begin("kinds")
    for name, _ in FIVE_KINDS:
        getattr(smallbank, name).execute(session, {"x": 2, "V": 1.0})
    session.rollback()
    assert fired == [
        ("select", 0, 0),
        ("select-for-update", 1, 0),
        ("update", 2, 0),
        ("identity-update", 2, 1),
        ("materialize-update", 2, 2),
    ]


class CachingProxy:
    """Forwards to a session the way the end-to-end benchmark's traced
    pass does: ``__getattr__`` once per name, the wrapper cached on the
    instance, every method call noted."""

    def __init__(self, session: Session) -> None:
        self._session = session
        self.calls: list[str] = []

    def __getattr__(self, name: str):
        attr = getattr(self._session, name)
        if not callable(attr):
            return attr

        def noted(*args, **kwargs):
            self.calls.append(name)
            return attr(*args, **kwargs)

        self.__dict__[name] = noted
        return noted


def test_a_proxy_session_sees_one_verb_call_per_statement(bank):
    proxy = CachingProxy(Session(bank))
    for _ in range(2):
        proxy.calls.clear()
        smallbank.SmallBankTransactions().run(proxy, "Balance", {"N": NAME})
        assert proxy.calls == ["begin", "select", "select", "select", "commit"]
    proxy.calls.clear()
    proxy.begin("five")
    for name, _ in FIVE_KINDS:
        getattr(smallbank, name).execute(proxy, {"x": 2, "V": 1.0})
    proxy.rollback()
    assert proxy.calls == [
        "begin",
        "select",
        "select_for_update",
        "update",
        "update",
        "update",
        "rollback",
    ]
