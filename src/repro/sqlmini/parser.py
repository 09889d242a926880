"""A small recursive-descent parser for the mini SQL dialect.

Accepts the SQL that appears in the paper (Program 1 and the strategy
statements), e.g.::

    SELECT Balance INTO :b FROM Saving WHERE CustomerId = :x FOR UPDATE;
    UPDATE Checking SET Balance = Balance - (:v + 1) WHERE CustomerId = :x;
    UPDATE Conflict SET Value = Value + 1 WHERE Id = :x;
    INSERT INTO Account (Name, CustomerId) VALUES (:n, :c);

Keywords are case-insensitive; identifiers keep their case.  A trailing
semicolon is optional.  :func:`parse` returns one statement;
:func:`parse_script` splits on semicolons and returns all of them.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.errors import SqlError
from repro.sqlmini.ast import (
    BinOp,
    ColumnRef,
    Delete,
    Expr,
    Insert,
    Literal,
    Param,
    Select,
    Statement,
    UnaryOp,
    Update,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<param>:[A-Za-z_][A-Za-z0-9_]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|<>|[=<>+\-*/(),;])
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT",
    "INTO",
    "FROM",
    "WHERE",
    "FOR",
    "UPDATE",
    "SET",
    "INSERT",
    "VALUES",
    "DELETE",
    "AND",
    "OR",
    "NOT",
}


class _Token:
    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: str) -> None:
        self.kind = kind
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SqlError(f"cannot tokenize SQL at: {text[pos:pos + 20]!r}")
        pos = match.end()
        kind = match.lastgroup or ""
        if kind == "ws":
            continue
        value = match.group()
        if kind == "name" and value.upper() in _KEYWORDS:
            tokens.append(_Token("kw", value.upper()))
        elif kind == "op" and value == "<>":
            tokens.append(_Token("op", "!="))
        else:
            tokens.append(_Token(kind, value))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers -------------------------------------------------
    def _peek(self) -> Optional[_Token]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SqlError("unexpected end of SQL")
        self._pos += 1
        return token

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[_Token]:
        token = self._peek()
        if token is not None and token.kind == kind and (
            value is None or token.value == value
        ):
            self._pos += 1
            return token
        return None

    def _expect(self, kind: str, value: Optional[str] = None) -> _Token:
        token = self._accept(kind, value)
        if token is None:
            found = self._peek()
            raise SqlError(
                f"expected {value or kind}, found "
                f"{found.value if found else 'end of input'!r}"
            )
        return token

    def _name(self) -> str:
        return self._expect("name").value

    # -- expressions (precedence climbing) -----------------------------
    def expression(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self._accept("kw", "OR"):
            left = BinOp("OR", left, self._and_expr())
        return left

    def _and_expr(self) -> Expr:
        left = self._not_expr()
        while self._accept("kw", "AND"):
            left = BinOp("AND", left, self._not_expr())
        return left

    def _not_expr(self) -> Expr:
        if self._accept("kw", "NOT"):
            return UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self) -> Expr:
        left = self._additive()
        token = self._peek()
        if token is not None and token.kind == "op" and token.value in (
            "=",
            "!=",
            "<",
            "<=",
            ">",
            ">=",
        ):
            self._next()
            return BinOp(token.value, left, self._additive())
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token is not None and token.kind == "op" and token.value in "+-":
                self._next()
                left = BinOp(token.value, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while True:
            token = self._peek()
            if token is not None and token.kind == "op" and token.value in "*/":
                self._next()
                left = BinOp(token.value, left, self._unary())
            else:
                return left

    def _unary(self) -> Expr:
        if self._accept("op", "-"):
            return UnaryOp("-", self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        token = self._next()
        if token.kind == "number":
            text = token.value
            return Literal(float(text) if "." in text else int(text))
        if token.kind == "string":
            return Literal(token.value[1:-1].replace("''", "'"))
        if token.kind == "param":
            return Param(token.value[1:])
        if token.kind == "name":
            return ColumnRef(token.value)
        if token.kind == "op" and token.value == "(":
            inner = self.expression()
            self._expect("op", ")")
            return inner
        raise SqlError(f"unexpected token {token.value!r} in expression")

    # -- statements ----------------------------------------------------
    def statement(self) -> Statement:
        token = self._peek()
        if token is None:
            raise SqlError("empty SQL statement")
        if token.kind != "kw":
            raise SqlError(f"expected a statement keyword, found {token.value!r}")
        if token.value == "SELECT":
            return self._select()
        if token.value == "UPDATE":
            return self._update()
        if token.value == "INSERT":
            return self._insert()
        if token.value == "DELETE":
            return self._delete()
        raise SqlError(f"unsupported statement {token.value!r}")

    def _select(self) -> Select:
        self._expect("kw", "SELECT")
        columns: list[str] = []
        if self._accept("op", "*"):
            columns.append("*")
        else:
            columns.append(self._name())
            while self._accept("op", ","):
                columns.append(self._name())
        into: list[str] = []
        if self._accept("kw", "INTO"):
            into.append(self._expect("param").value[1:])
            while self._accept("op", ","):
                into.append(self._expect("param").value[1:])
            # ``*`` is counted when the statement is planned against a schema.
            if columns != ["*"] and len(into) != len(columns):
                raise SqlError("SELECT INTO variable/column count mismatch")
        self._expect("kw", "FROM")
        table = self._name()
        where = self.expression() if self._accept("kw", "WHERE") else None
        for_update = False
        if self._accept("kw", "FOR"):
            self._expect("kw", "UPDATE")
            for_update = True
        return Select(table, tuple(columns), where, tuple(into), for_update)

    def _update(self) -> Update:
        self._expect("kw", "UPDATE")
        table = self._name()
        self._expect("kw", "SET")
        assignments: list[tuple[str, Expr]] = []
        while True:
            column = self._name()
            self._expect("op", "=")
            assignments.append((column, self.expression()))
            if not self._accept("op", ","):
                break
        where = self.expression() if self._accept("kw", "WHERE") else None
        return Update(table, tuple(assignments), where)

    def _insert(self) -> Insert:
        self._expect("kw", "INSERT")
        self._expect("kw", "INTO")
        table = self._name()
        self._expect("op", "(")
        columns = [self._name()]
        while self._accept("op", ","):
            columns.append(self._name())
        self._expect("op", ")")
        self._expect("kw", "VALUES")
        self._expect("op", "(")
        values = [self.expression()]
        while self._accept("op", ","):
            values.append(self.expression())
        self._expect("op", ")")
        return Insert(table, tuple(columns), tuple(values))

    def _delete(self) -> Delete:
        self._expect("kw", "DELETE")
        self._expect("kw", "FROM")
        table = self._name()
        where = self.expression() if self._accept("kw", "WHERE") else None
        return Delete(table, where)

    def finish_statement(self) -> None:
        self._accept("op", ";")
        token = self._peek()
        if token is not None:
            raise SqlError(f"trailing input after statement: {token.value!r}")


def parse(sql: str) -> Statement:
    """Parse exactly one statement."""
    parser = _Parser(_tokenize(sql))
    statement = parser.statement()
    parser.finish_statement()
    return statement


def parse_script(sql: str) -> list[Statement]:
    """Parse a semicolon-separated list of statements."""
    statements: list[Statement] = []
    for chunk in sql.split(";"):
        if chunk.strip():
            statements.append(parse(chunk))
    return statements
