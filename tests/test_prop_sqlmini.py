"""Property-based tests: mini-SQL parser round-trips and evaluation."""

from __future__ import annotations

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlError
from repro.sqlmini import (
    BinOp,
    ColumnRef,
    Delete,
    Insert,
    Literal,
    Param,
    Select,
    UnaryOp,
    Update,
    compile_expr,
    evaluate,
    parse,
)
from repro.sqlmini.ast import compile_assignments

names = st.sampled_from(["Balance", "CustomerId", "Value", "col_1", "X"])
params = st.sampled_from(["x", "V", "N2", "amount"])
numbers = st.one_of(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(
        lambda f: round(f, 3)
    ),
)
strings = st.text(
    alphabet="abcXYZ'! _", min_size=0, max_size=8
)


@st.composite
def expressions(draw, depth: int = 0, small_products: bool = False):
    """Any expression tree.  With ``small_products`` (for the tests that
    evaluate what they draw) every ``*`` multiplies by a one-digit
    literal: a drawn string times a product of drawn integers would be
    gigabytes long."""
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["number", "string", "param", "column"]))
        if leaf == "number":
            return Literal(draw(numbers))
        if leaf == "string":
            return Literal(draw(strings))
        if leaf == "param":
            return Param(draw(params))
        return ColumnRef(draw(names))
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    left = draw(expressions(depth + 1, small_products))
    if op == "*" and small_products:
        return BinOp(op, left, Literal(draw(st.integers(min_value=0, max_value=9))))
    return BinOp(op, left, draw(expressions(depth + 1, small_products)))


@st.composite
def comparisons(draw, small_products: bool = False):
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
    left = draw(expressions(small_products=small_products))
    right = draw(expressions(small_products=small_products))
    node = BinOp(op, left, right)
    if draw(st.booleans()):
        node = BinOp(
            draw(st.sampled_from(["AND", "OR"])),
            node,
            draw(comparisons(small_products)),
        )
    return node


@st.composite
def statements(draw):
    kind = draw(st.sampled_from(["select", "update", "insert", "delete"]))
    table = draw(names)
    where = draw(st.one_of(st.none(), comparisons()))
    if kind == "select":
        columns = tuple(draw(st.lists(names, min_size=1, max_size=3,
                                      unique=True)))
        into = ()
        if draw(st.booleans()):
            into = tuple(f"v{i}" for i in range(len(columns)))
        return Select(table, columns, where, into, draw(st.booleans()))
    if kind == "update":
        assignments = tuple(
            (draw(names), draw(expressions()))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        )
        return Update(table, assignments, where)
    if kind == "insert":
        columns = tuple(
            draw(st.lists(names, min_size=1, max_size=3, unique=True))
        )
        values = tuple(draw(expressions()) for _ in columns)
        return Insert(table, columns, values)
    return Delete(table, where)


@given(statements())
@settings(max_examples=300, deadline=None)
def test_statement_str_round_trips_through_the_parser(statement):
    assert parse(str(statement)) == statement


@given(expressions())
@settings(max_examples=300, deadline=None)
def test_expression_str_round_trips(expression):
    wrapped = parse(f"SELECT a FROM t WHERE x = ({expression})")
    assert wrapped.where.right == expression


@given(
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=-100, max_value=100),
    st.integers(min_value=1, max_value=100),
)
@settings(max_examples=200)
def test_arithmetic_evaluation_matches_python(a, b, c):
    expr = parse(f"SELECT x FROM t WHERE x = :a + :b * :c - (:a / :c)").where.right
    value = evaluate(expr, None, {"a": a, "b": b, "c": c})
    assert value == a + b * c - (a / c)


@given(comparisons())
@settings(max_examples=200, deadline=None)
def test_comparison_evaluation_is_boolean_when_types_align(comparison):
    bindings = {name: 1 for name in ["x", "V", "N2", "amount"]}
    row = {name: 2 for name in ["Balance", "CustomerId", "Value", "col_1", "X"]}
    try:
        result = evaluate(comparison, row, bindings)
    except (TypeError, ZeroDivisionError):
        # Mixed string/number comparisons can be ill-typed and random
        # arithmetic can divide by zero; the executor surfaces Python's
        # errors for both, which is the intended behaviour.
        return
    assert isinstance(result, bool)


# ----------------------------------------------------------------------
# compile_expr against the tree-walking interpreter it replaced
# ----------------------------------------------------------------------
_OPERATORS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def reference_evaluate(expr, row, params):
    """The interpreter ``repro.sqlmini.evaluate`` was until statements
    were planned: the oracle for what every expression means."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Param):
        try:
            return params[expr.name]
        except KeyError:
            raise SqlError(f"unbound parameter :{expr.name}") from None
    if isinstance(expr, ColumnRef):
        if row is None:
            raise SqlError(f"column {expr.name!r} referenced outside a row context")
        try:
            return row[expr.name]
        except KeyError:
            raise SqlError(f"unknown column {expr.name!r}") from None
    if isinstance(expr, UnaryOp):
        value = reference_evaluate(expr.operand, row, params)
        if expr.op == "NOT":
            return not value
        if expr.op == "-":
            return -value
        raise SqlError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BinOp):
        if expr.op == "AND":
            return bool(reference_evaluate(expr.left, row, params)) and bool(
                reference_evaluate(expr.right, row, params)
            )
        if expr.op == "OR":
            return bool(reference_evaluate(expr.left, row, params)) or bool(
                reference_evaluate(expr.right, row, params)
            )
        left = reference_evaluate(expr.left, row, params)
        right = reference_evaluate(expr.right, row, params)
        if expr.op in _OPERATORS:
            return _OPERATORS[expr.op](left, right)
        raise SqlError(f"unknown operator {expr.op!r}")
    raise SqlError(f"unknown expression node {expr!r}")


def outcome(evaluator, expr, row, params):
    """``("value", type, value)`` or ``("error", class, message)``."""
    try:
        value = evaluator(expr, row, params)
    except (SqlError, TypeError, ZeroDivisionError) as exc:
        return "error", type(exc), str(exc)
    return "value", type(value), value


@st.composite
def negated(draw, small_products: bool = False):
    node = draw(
        st.one_of(
            expressions(small_products=small_products),
            comparisons(small_products),
        )
    )
    return UnaryOp(draw(st.sampled_from(["NOT", "-"])), node)


values = st.one_of(numbers, st.booleans(), strings)
# Sometimes no row at all, and often a column or parameter short: the
# three SqlError cases (unbound parameter, column outside a row context,
# unknown column) must read the same from both implementations.
rows = st.one_of(st.none(), st.dictionaries(names, values))
bindings = st.dictionaries(params, values)


evaluable = st.one_of(
    expressions(small_products=True), comparisons(True), negated(True)
)


@st.composite
def set_lists(draw):
    """An UPDATE's SET list: one to three assignments, each one of the
    shapes the parser yields for the SmallBank programs (``c = c ± :p``,
    ``c = :p``, ``c = <const>``, ``c = c``, ``c = c - (:p + 1)``) or any
    expression."""
    assignments = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        column, other, param = draw(names), draw(names), Param(draw(params))
        shape = draw(st.sampled_from(["add", "sub", "param", "const", "identity", "penalty", "any"]))
        expr = {
            "add": BinOp("+", ColumnRef(column), param),
            "sub": BinOp("-", ColumnRef(other), param),
            "param": param,
            "const": Literal(draw(values)),
            "identity": ColumnRef(column),
            "penalty": BinOp("-", ColumnRef(column), BinOp("+", param, Literal(1))),
        }.get(shape) or draw(evaluable)
        assignments.append((column, expr))
    return tuple(assignments)


def reference_assign(assignments, row, params):
    """What the SET list meant when each assignment was evaluated alone."""
    new = {}
    for column, expr in assignments:
        new[column] = reference_evaluate(expr, row, params)
    return new


@given(evaluable, set_lists(), rows, bindings)
@settings(max_examples=600, deadline=None)
def test_compiled_expression_agrees_with_the_reference_interpreter(
    expression, assignments, row, binding
):
    """Values, ``unbound parameter``, ``unknown column`` and Python's own
    errors read the same from the closures and, for an UPDATE's SET
    list, from the one generated function."""
    expected = outcome(reference_evaluate, expression, row, binding)
    assert outcome(evaluate, expression, row, binding) == expected
    compiled = compile_expr(expression)
    assert outcome(lambda _e, r, p: compiled(r, p), expression, row, binding) == expected
    expected = outcome(reference_assign, assignments, row, binding)
    assign = compile_assignments(assignments)
    assert outcome(lambda _a, r, p: assign(p, r), assignments, row, binding) == expected


def test_equal_looking_literals_keep_their_own_type():
    """``Literal(1) == Literal(1.0) == Literal(True)`` as dataclasses,
    which is why closures are not memoised by node: one would be handed
    the other's value."""
    for value in (1, 1.0, True, 0, 0.0, False):
        result = compile_expr(BinOp("+", Literal(value), Literal(0)))(None, {})
        assert type(result) is type(value + 0)
