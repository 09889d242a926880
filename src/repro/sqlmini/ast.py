"""Abstract syntax for the mini SQL dialect.

The dialect covers exactly what the paper's transaction programs (Program 1
and the strategy modifications) need, in PL/pgSQL-flavoured form:

* ``SELECT col [, col] [INTO :var [, :var]] FROM t [WHERE expr] [FOR UPDATE]``
* ``UPDATE t SET col = expr [, col = expr] [WHERE expr]``
* ``INSERT INTO t (col, ...) VALUES (expr, ...)``
* ``DELETE FROM t [WHERE expr]``

Expressions support column references, ``:parameter`` placeholders, numeric
and string literals, ``+ - * /``, comparisons and ``AND`` / ``OR`` / ``NOT``.
Statements are plain immutable dataclasses; the executor plans them once
per table schema and runs the plan against a
:class:`~repro.engine.session.Session`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from repro.errors import SqlError

# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return repr(self.value)


@dataclass(frozen=True)
class Param:
    name: str

    def __str__(self) -> str:
        return f":{self.name}"


@dataclass(frozen=True)
class ColumnRef:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / = != < <= > >= AND OR
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp:
    op: str  # NOT, -
    operand: "Expr"

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


Expr = Union[Literal, Param, ColumnRef, BinOp, UnaryOp]

#: A compiled expression: ``fn(row, params)``; ``row`` may be ``None``.
Evaluator = Callable[[Optional[Mapping[str, object]], Mapping[str, object]], object]

_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_expr(expr: Expr) -> Evaluator:
    """Turn ``expr`` into a closure ``fn(row, params)``.

    This is the reference implementation of expression semantics:
    statements compile their expressions when they are planned, and
    calling the closure walks no tree and tests no node types.
    :func:`compile_assignments` generates the same semantics as one
    Python expression and words its errors through these closures.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row, params: value
    if isinstance(expr, Param):
        name = expr.name

        def param(row, params):
            try:
                return params[name]
            except KeyError:
                raise SqlError(f"unbound parameter :{name}") from None

        return param
    if isinstance(expr, ColumnRef):
        name = expr.name

        def column(row, params):
            if row is None:
                raise SqlError(f"column {name!r} referenced outside a row context")
            try:
                return row[name]
            except KeyError:
                raise SqlError(f"unknown column {name!r}") from None

        return column
    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand)
        if expr.op == "NOT":
            return lambda row, params: not operand(row, params)
        if expr.op == "-":
            return lambda row, params: -operand(row, params)
        raise SqlError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BinOp):
        left, right = compile_expr(expr.left), compile_expr(expr.right)
        if expr.op == "AND":
            return lambda row, params: bool(left(row, params)) and bool(
                right(row, params)
            )
        if expr.op == "OR":
            return lambda row, params: bool(left(row, params)) or bool(
                right(row, params)
            )
        apply = _BINARY.get(expr.op)
        if apply is None:
            raise SqlError(f"unknown operator {expr.op!r}")
        return lambda row, params: apply(left(row, params), right(row, params))
    raise SqlError(f"unknown expression node {expr!r}")


#: Python's spelling of each arithmetic / comparison operator.
_PYTHON_OPERATOR = {
    "+": "+", "-": "-", "*": "*", "/": "/",
    "=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}


def compile_assignments(
    assignments: "tuple[tuple[str, Expr], ...]",
) -> Callable[[Mapping[str, object], Mapping[str, object]], dict]:
    """Turn an UPDATE's SET list into one function ``fn(params, row)``
    returning ``{column: new value}``: a single generated Python
    expression, so ``Balance = Balance + :V`` costs one frame, not a
    closure per node.  Bind ``params`` with :func:`functools.partial` to
    get the engine's ``changes(row)``.

    Evaluation order and results are :func:`compile_expr`'s.  A missing
    key or an ill-typed operand sends the call back through those
    closures, which raise the error they word (``unbound parameter
    :V``, ``unknown column 'X'``, Python's own ``TypeError``)."""
    constants: dict[str, object] = {}

    def source(expr: Expr) -> str:
        if isinstance(expr, Literal):
            name = f"_k{len(constants)}"
            constants[name] = expr.value
            return name
        if isinstance(expr, Param):
            return f"params[{expr.name!r}]"
        if isinstance(expr, ColumnRef):
            return f"row[{expr.name!r}]"
        if isinstance(expr, UnaryOp):
            if expr.op == "NOT":
                return f"(not {source(expr.operand)})"
            if expr.op == "-":
                return f"(-{source(expr.operand)})"
            raise SqlError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, BinOp):
            left, right = source(expr.left), source(expr.right)
            if expr.op in ("AND", "OR"):
                return f"(bool({left}) {expr.op.lower()} bool({right}))"
            if expr.op not in _PYTHON_OPERATOR:
                raise SqlError(f"unknown operator {expr.op!r}")
            return f"({left} {_PYTHON_OPERATOR[expr.op]} {right})"
        raise SqlError(f"unknown expression node {expr!r}")

    body = ", ".join(f"{column!r}: {source(expr)}" for column, expr in assignments)
    closures = tuple((column, compile_expr(expr)) for column, expr in assignments)

    def explain(params, row):
        new = {}
        for column, fn in closures:
            new[column] = fn(row, params)
        return new

    namespace = {**constants, "explain": explain}
    exec(
        "def assign(params, row):\n"
        f"    try:\n        return {{{body}}}\n"
        "    except (KeyError, TypeError):\n        pass\n"
        "    return explain(params, row)\n",
        namespace,
    )
    return namespace["assign"]


def evaluate(
    expr: Expr,
    row: Optional[Mapping[str, object]],
    params: Mapping[str, object],
) -> object:
    """Evaluate ``expr`` against a row (may be None) and bound parameters."""
    return compile_expr(expr)(row, params)


def columns_in(expr: Optional[Expr]) -> frozenset[str]:
    """All column names referenced by ``expr``."""
    if expr is None:
        return frozenset()
    if isinstance(expr, ColumnRef):
        return frozenset({expr.name})
    if isinstance(expr, BinOp):
        return columns_in(expr.left) | columns_in(expr.right)
    if isinstance(expr, UnaryOp):
        return columns_in(expr.operand)
    return frozenset()


def equality_key(
    where: Optional[Expr], column: str
) -> Optional[Expr]:
    """If ``where`` constrains ``column = <column-free expr>``, return it.

    Recognizes the pattern directly or as a conjunct of an AND chain, which
    is how the executor turns WHERE clauses into primary-key or unique-index
    lookups instead of full scans.
    """
    if where is None:
        return None
    if isinstance(where, BinOp):
        if where.op == "=":
            if (
                isinstance(where.left, ColumnRef)
                and where.left.name == column
                and not columns_in(where.right)
            ):
                return where.right
            if (
                isinstance(where.right, ColumnRef)
                and where.right.name == column
                and not columns_in(where.left)
            ):
                return where.left
            return None
        if where.op == "AND":
            return equality_key(where.left, column) or equality_key(
                where.right, column
            )
    return None


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Select:
    table: str
    columns: tuple[str, ...]  # ("*",) selects every column
    where: Optional[Expr] = None
    into: tuple[str, ...] = ()
    for_update: bool = False

    def __str__(self) -> str:
        parts = [f"SELECT {', '.join(self.columns)}"]
        if self.into:
            parts.append("INTO " + ", ".join(f":{name}" for name in self.into))
        parts.append(f"FROM {self.table}")
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.for_update:
            parts.append("FOR UPDATE")
        return " ".join(parts)


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Optional[Expr] = None

    @property
    def is_identity(self) -> bool:
        """True for the promotion idiom ``SET col = col`` (all assignments)."""
        return all(
            isinstance(expr, ColumnRef) and expr.name == column
            for column, expr in self.assignments
        )

    def __str__(self) -> str:
        sets = ", ".join(f"{col} = {expr}" for col, expr in self.assignments)
        where = f" WHERE {self.where}" if self.where is not None else ""
        return f"UPDATE {self.table} SET {sets}{where}"


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]
    values: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.values):
            raise SqlError("INSERT column/value count mismatch")

    def __str__(self) -> str:
        cols = ", ".join(self.columns)
        vals = ", ".join(str(v) for v in self.values)
        return f"INSERT INTO {self.table} ({cols}) VALUES ({vals})"


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expr] = None

    def __str__(self) -> str:
        where = f" WHERE {self.where}" if self.where is not None else ""
        return f"DELETE FROM {self.table}{where}"


@dataclass(frozen=True)
class Call:
    """``CALL program``: a whole transaction program as one statement.

    Never parsed — built by the application around a
    :class:`repro.api.Program` — and executable only on sessions that
    ship programs to their server (``call_program``: ``tcp://`` and
    ``cluster://``), where the one statement is the whole transaction,
    begin and commit included.  Executing it returns what the program
    returns, not a ``StatementResult``.
    """

    program: object  # a repro.api.Program
    label: str

    def __str__(self) -> str:
        return f"CALL {self.label}"


Statement = Union[Select, Update, Insert, Delete, Call]
