"""Execution of mini-SQL statements against an engine session.

A :class:`PreparedStatement` is parsed once and executed many times with
different parameter bindings — the shape of the stored procedures the
paper's test driver invokes.  ``SELECT ... INTO :var`` writes the result
into the parameter mapping, mirroring PL/pgSQL, so transaction programs can
chain statements exactly like Program 1 in the paper.

Planning is deliberately simple: a ``WHERE`` clause that pins the table's
primary key (or a unique column) with an equality against a column-free
expression becomes a key lookup; anything else is a predicate scan.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Hashable, MutableMapping, Optional

from repro.engine.session import Session
from repro.errors import SqlError
from repro.sqlmini.ast import (
    Call,
    Delete,
    Expr,
    Insert,
    Select,
    Statement,
    Update,
    columns_in,
    equality_key,
    evaluate,
)
from repro.sqlmini.parser import parse

Params = MutableMapping[str, object]


# ----------------------------------------------------------------------
# Parse cache
# ----------------------------------------------------------------------
# Statement ASTs are frozen dataclasses, so one parse result can safely be
# shared by every PreparedStatement (and every server-side EXEC) carrying
# the same SQL text.  Before this cache existed, the facade/wire path — a
# fresh PreparedStatement per EXEC — re-parsed on every execution.
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


@dataclass
class StatementResult:
    """Outcome of one statement execution."""

    rows: list[dict[str, object]] = field(default_factory=list)
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
        if isinstance(statement, Select):
            return self._execute_select(session, statement, bound)
        if isinstance(statement, Update):
            return self._execute_update(session, statement, bound)
        if isinstance(statement, Insert):
            return self._execute_insert(session, statement, bound)
        if isinstance(statement, Delete):
            return self._execute_delete(session, statement, bound)
        raise SqlError(f"unsupported statement {statement!r}")

    # ------------------------------------------------------------------
    def _schema(self, session: Session, table: str):
        return session.db.catalog.table(table).schema

    def _resolve_rows(
        self,
        session: Session,
        table: str,
        where: Optional[Expr],
        params: Params,
        *,
        for_update: bool,
        kind: str,
    ) -> list[tuple[Hashable, dict[str, object]]]:
        """Find the rows a statement targets, preferring key lookups."""
        schema = self._schema(session, table)
        pk = schema.primary_key

        key_expr = equality_key(where, pk)
        if key_expr is not None:
            key = evaluate(key_expr, None, params)
            if for_update:
                row = session.select_for_update(table, key, kind=kind)
            else:
                row = session.select(table, key, kind=kind)
            if row is None:
                return []
            if where is not None and not evaluate(where, row, params):
                return []
            return [(key, dict(row))]

        for column in schema.unique:
            value_expr = equality_key(where, column)
            if value_expr is None:
                continue
            value = evaluate(value_expr, None, params)
            found = session.lookup_unique(table, column, value, kind=kind)
            if found is None:
                return []
            key, row = found
            if for_update:
                locked = session.select_for_update(table, key)
                if locked is None:
                    return []
                row = locked
            if where is not None and not evaluate(where, row, params):
                return []
            return [(key, dict(row))]

        matches = session.scan(
            table,
            predicate=(
                (lambda row: bool(evaluate(where, row, params)))
                if where is not None
                else None
            ),
            description=str(where) if where is not None else "<all>",
            kind="scan",
        )
        resolved: list[tuple[Hashable, dict[str, object]]] = []
        for key, row in matches:
            if for_update:
                locked = session.select_for_update(table, key)
                if locked is None:
                    continue
                row = locked
            resolved.append((key, dict(row)))
        return resolved

    def _execute_select(
        self, session: Session, statement: Select, params: Params
    ) -> StatementResult:
        kind = self.kind if self.kind != "select" else (
            "select-for-update" if statement.for_update else "select"
        )
        targets = self._resolve_rows(
            session,
            statement.table,
            statement.where,
            params,
            for_update=statement.for_update,
            kind=kind,
        )
        schema = self._schema(session, statement.table)
        columns = (
            schema.column_names
            if statement.columns == ("*",)
            else statement.columns
        )
        rows = [{col: row[col] for col in columns} for _, row in targets]
        if statement.into:
            first = rows[0] if rows else None
            for column, var in zip(columns, statement.into):
                params[var] = first[column] if first is not None else None
        return StatementResult(rows=rows, rowcount=len(rows))

    def _execute_update(
        self, session: Session, statement: Update, params: Params
    ) -> StatementResult:
        schema = self._schema(session, statement.table)
        pk = schema.primary_key
        key_expr = equality_key(statement.where, pk)

        def changes(row):
            return {
                column: evaluate(expr, row, params)
                for column, expr in statement.assignments
            }

        count = 0
        if key_expr is not None and columns_in(statement.where) == {pk}:
            key = evaluate(key_expr, None, params)
            if session.update(statement.table, key, changes, kind=self.kind):
                count = 1
        else:
            targets = self._resolve_rows(
                session,
                statement.table,
                statement.where,
                params,
                for_update=False,
                kind="scan",
            )
            for key, _row in targets:
                if session.update(statement.table, key, changes, kind=self.kind):
                    count += 1
        return StatementResult(rowcount=count)

    def _execute_insert(
        self, session: Session, statement: Insert, params: Params
    ) -> StatementResult:
        row = {
            column: evaluate(expr, None, params)
            for column, expr in zip(statement.columns, statement.values)
        }
        session.insert(statement.table, row, kind=self.kind)
        return StatementResult(rowcount=1)

    def _execute_delete(
        self, session: Session, statement: Delete, params: Params
    ) -> StatementResult:
        targets = self._resolve_rows(
            session,
            statement.table,
            statement.where,
            params,
            for_update=False,
            kind=self.kind,
        )
        count = 0
        for key, _row in targets:
            session.delete(statement.table, key, kind=self.kind)
            count += 1
        return StatementResult(rowcount=count)


def execute_sql(
    session: Session, sql: str, params: Optional[Params] = None
) -> StatementResult:
    """One-shot convenience: parse and execute ``sql`` in ``session``."""
    return PreparedStatement(sql).execute(session, params)
