"""Execution of mini-SQL statements against an engine session.

A :class:`PreparedStatement` is parsed once, planned once per database
(one with an equal table schema reuses the plan) and executed many times
with different parameter bindings — the shape of the stored procedures
the paper's test driver invokes.
``SELECT ... INTO :var`` writes the result into the parameter mapping,
mirroring PL/pgSQL, so transaction programs can chain statements exactly
like Program 1 in the paper.

Planning is deliberately simple: a ``WHERE`` clause that pins the table's
primary key (or a unique column) with an equality against a column-free
expression becomes a key lookup; anything else is a predicate scan.
"""

from __future__ import annotations

import threading
import weakref
from operator import itemgetter
from typing import Callable, Hashable, Mapping, MutableMapping, NamedTuple, Optional, Sequence

from repro.engine.session import Session
from repro.engine.storage import TableSchema
from repro.errors import SqlError
from repro.sqlmini.ast import (
    Call,
    Delete,
    Expr,
    Insert,
    Param,
    Select,
    Statement,
    Update,
    compile_expr,
    equality_key,
)
from repro.sqlmini.parser import parse

Params = MutableMapping[str, object]


# ----------------------------------------------------------------------
# Parse cache
# ----------------------------------------------------------------------
# Statement ASTs are frozen dataclasses, so one parse result can safely be
# shared by every PreparedStatement (and every server-side EXEC) carrying
# the same SQL text.
_parse_cache: dict[str, Statement] = {}
_parse_cache_lock = threading.Lock()
_parse_misses = 0


def parse_cached(sql: str) -> Statement:
    """Parse ``sql``, memoizing the (immutable) AST by exact text."""
    global _parse_misses
    with _parse_cache_lock:
        cached = _parse_cache.get(sql)
    if cached is not None:
        return cached
    statement = parse(sql)
    with _parse_cache_lock:
        _parse_misses += 1
        return _parse_cache.setdefault(sql, statement)


def parse_cache_stats() -> tuple[int, int]:
    """``(cached_statements, total_parse_misses)`` — for tests/metrics."""
    with _parse_cache_lock:
        return len(_parse_cache), _parse_misses


def clear_parse_cache() -> None:
    global _parse_misses
    with _parse_cache_lock:
        _parse_cache.clear()
        _parse_misses = 0


class StatementResult(NamedTuple):
    """Outcome of one statement execution: a tuple, so a key runner builds
    one without a Python frame.  The executor's ``rows`` is always a list
    (the field's default, for other builders, is an empty tuple)."""

    rows: "Sequence[dict[str, object]]" = ()
    rowcount: int = 0

    @property
    def first(self) -> Optional[dict[str, object]]:
        return self.rows[0] if self.rows else None


class PreparedStatement:
    """A parsed statement bound to no particular session.

    Parameters
    ----------
    sql:
        Statement text (or an already-parsed :class:`Statement`).
    kind:
        Override for the session statement-accounting hook.  The strategy
        layer tags the statements it injects (``"materialize-update"``)
        so the platform cost models can price them; identity updates are
        tagged automatically.
    """

    def __init__(self, sql: "str | Statement", kind: Optional[str] = None) -> None:
        if isinstance(sql, str):
            self.statement: Statement = parse_cached(sql)
            self.sql = sql
        else:
            self.statement = sql
            self.sql = str(sql)
        if kind is not None:
            self.kind = kind
        elif isinstance(self.statement, Update) and self.statement.is_identity:
            self.kind = "identity-update"
        else:
            self.kind = type(self.statement).__name__.lower()
        # (weak reference to the database planned for, its table's schema,
        # runner), swapped whole: this object may be shared by every
        # database and thread, and must not keep a database alive.
        self._planned: tuple = (lambda: None, None, None)  # planned for no database

    def __str__(self) -> str:
        return str(self.statement)

    # ------------------------------------------------------------------
    def execute(self, session: Session, params: Optional[Params] = None) -> StatementResult:
        bound: Params = params if params is not None else {}
        statement = self.statement
        # Network facade path: a session that executes statements remotely
        # (ships SQL text + params, merges returned bindings) advertises
        # ``execute_prepared``; planning then happens server-side.
        remote = getattr(session, "execute_prepared", None)
        if remote is not None:
            if isinstance(statement, Call):
                # The whole transaction, run next to the engine; its
                # return value is the statement's single result.
                result = session.call_program(
                    statement.program, bound, statement.label
                )
                return StatementResult(rows=[{"result": result}])
            return remote(self.sql, self.kind, bound)
        db = session.db
        planned = self._planned
        if planned[0]() is not db:
            planned = self._plan_for(db)
        return planned[2](session, bound)

    def _plan_for(self, db) -> tuple:
        """Plan for ``db``, keeping the runner when its table's schema
        equals the one planned for last."""
        statement = self.statement
        table = getattr(statement, "table", None)
        if table is None:
            raise SqlError(f"unsupported statement {statement!r}")
        schema = db.catalog.table(table).schema
        _, planned_schema, runner = self._planned
        if planned_schema is not schema and planned_schema != schema:
            runner = _plan(statement, self.kind, schema)
        planned = self._planned = (weakref.ref(db), schema, runner)
        return planned


Runner = Callable[[Session, Params], StatementResult]
_built = tuple.__new__  # ``_built(StatementResult, (rows, count))``, no frame


def _access_path(
    schema: TableSchema,
    where: Optional[Expr],
    *,
    for_update: bool = False,
    kind: str,
) -> Callable[[Session, Params], "list[tuple[Hashable, Mapping[str, object]]]"]:
    """Choose how a statement finds its ``(key, row)`` pairs: primary key,
    else a unique column, else a predicate scan.  A key lookup re-checks
    the whole ``WHERE`` on the row it found unless the key equality is
    all of it."""
    table = schema.name
    matches = compile_expr(where) if where is not None else None
    key_expr = equality_key(where, schema.primary_key)
    if key_expr is not None:
        key_of = compile_expr(key_expr)
        residual = matches if where.op != "=" else None
        verb = "select_for_update" if for_update else "select"

        def by_key(session, params):
            key = key_of(None, params)
            row = getattr(session, verb)(table, key, kind=kind)
            if row is None or (residual is not None and not residual(row, params)):
                return []
            return [(key, row)]

        return by_key

    for column in schema.unique:
        value_expr = equality_key(where, column)
        if value_expr is None:
            continue
        value_of = compile_expr(value_expr)

        def by_unique(session, params):
            found = session.lookup_unique(
                table, column, value_of(None, params), kind=kind
            )
            if found is None:
                return []
            key, row = found
            if for_update:  # the lookup above was this statement's charge
                row = session.select_for_update(table, key, kind=None)
            if row is None or not matches(row, params):
                return []
            return [(key, row)]

        return by_unique

    description = str(where) if where is not None else "<all>"

    def by_scan(session, params):
        predicate = None
        if matches is not None:
            predicate = lambda row: bool(matches(row, params))
        found = session.scan(
            table, predicate=predicate, description=description, kind="scan"
        )
        if not for_update:
            return found
        locked = ((key, session.select_for_update(table, key)) for key, _ in found)
        return [(key, row) for key, row in locked if row is not None]

    return by_scan


def _key_of(where: Optional[Expr], schema: TableSchema) -> Optional[Callable]:
    """``params -> key`` when the whole ``where`` is ``pk = <expr>``; a bare
    ``:param`` is a C ``itemgetter`` (no frame) whose ``KeyError`` names it."""
    key_expr = equality_key(where, schema.primary_key)
    if key_expr is None or where.op != "=":
        return None
    if isinstance(key_expr, Param):
        return itemgetter(key_expr.name)
    evaluate = compile_expr(key_expr)
    return lambda params: evaluate(None, params)


def _plan(statement: Statement, kind: str, schema: TableSchema) -> Runner:
    """Decide everything about ``statement`` that does not depend on the
    parameters: access path, session verb and ``kind``, projection and
    ``INTO`` pairs, compiled predicate and assignments.  A SELECT or UPDATE
    whose whole ``WHERE`` is the key is one runner frame above one verb."""
    table = schema.name
    key_of = _key_of(getattr(statement, "where", None), schema)
    if isinstance(statement, Select):
        columns = (
            schema.column_names if statement.columns == ("*",) else statement.columns
        )
        for column in columns:
            if column not in schema.column_name_set:
                raise SqlError(f"unknown column {column!r}")
        if statement.into and len(statement.into) != len(columns):
            raise SqlError("SELECT INTO variable/column count mismatch")
        into = tuple(zip(columns, statement.into))
        if kind == "select" and statement.for_update:
            kind = "select-for-update"
        if key_of is not None:
            for_update, nulls = statement.for_update, dict.fromkeys(statement.into)

            def select_key(session, params):
                try:
                    key = key_of(params)
                except KeyError as unbound:
                    raise SqlError(f"unbound parameter :{unbound.args[0]}") from None
                if for_update:
                    row = session.select_for_update(table, key, kind=kind)
                else:
                    row = session.select(table, key, kind=kind)
                if row is None:
                    params.update(nulls)
                    return _built(StatementResult, ([], 0))
                first = {}  # plain loops: no comprehension frame, no iterators
                for column in columns:
                    first[column] = row[column]
                for column, var in into:
                    params[var] = first[column]
                return _built(StatementResult, ([first], 1))

            return select_key
        rows_of = _access_path(
            schema, statement.where, for_update=statement.for_update, kind=kind
        )

        def select(session, params):
            rows = [
                {column: row[column] for column in columns}
                for _, row in rows_of(session, params)
            ]
            first = rows[0] if rows else None
            for column, var in into:
                params[var] = first[column] if first is not None else None
            return StatementResult(rows, len(rows))

        return select

    if isinstance(statement, Update):
        sets = tuple(
            (column, compile_expr(expr)) for column, expr in statement.assignments
        )
        if key_of is not None:
            # The whole WHERE is the key: ``session.update`` finds the row.
            def update_key(session, params):
                try:
                    key = key_of(params)
                except KeyError as unbound:
                    raise SqlError(f"unbound parameter :{unbound.args[0]}") from None

                def changes(row):
                    new = {}
                    for column, fn in sets:
                        new[column] = fn(row, params)
                    return new

                updated = session.update(table, key, changes, kind=kind)
                return _built(StatementResult, ([], int(updated)))

            return update_key
        rows_of = _access_path(schema, statement.where, kind="scan")

        def update(session, params):
            changes = lambda row: {column: fn(row, params) for column, fn in sets}
            count = 0
            for key, _ in rows_of(session, params):
                if session.update(table, key, changes, kind=kind):
                    count += 1
            return StatementResult([], count)

        return update

    if isinstance(statement, Insert):
        values = tuple(
            (column, compile_expr(expr))
            for column, expr in zip(statement.columns, statement.values)
        )

        def insert(session, params):
            row = {column: fn(None, params) for column, fn in values}
            session.insert(table, row, kind=kind)
            return StatementResult([], 1)

        return insert

    if isinstance(statement, Delete):
        rows_of = _access_path(schema, statement.where, kind=kind)

        def delete(session, params):
            targets = rows_of(session, params)
            for key, _ in targets:
                session.delete(table, key, kind=kind)
            return StatementResult([], len(targets))

        return delete

    raise SqlError(f"unsupported statement {statement!r}")


def execute_sql(
    session: Session, sql: str, params: Optional[Params] = None
) -> StatementResult:
    """One-shot convenience: parse and execute ``sql`` in ``session``."""
    return PreparedStatement(sql).execute(session, params)
