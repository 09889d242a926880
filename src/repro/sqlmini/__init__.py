"""Mini SQL layer: AST, parser and executor over engine sessions.

The SmallBank transaction programs are written against this layer so their
code matches the SQL printed in the paper (Program 1)::

    from repro.sqlmini import PreparedStatement

    get_saving = PreparedStatement(
        "SELECT Balance INTO :a FROM Saving WHERE CustomerId = :x"
    )
    params = {"x": 42}
    get_saving.execute(session, params)
    print(params["a"])
"""

from repro.sqlmini.ast import (
    BinOp,
    Call,
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
    columns_in,
    compile_expr,
    equality_key,
    evaluate,
)
from repro.sqlmini.executor import (
    PreparedStatement,
    StatementResult,
    clear_parse_cache,
    execute_sql,
    parse_cache_stats,
    parse_cached,
)
from repro.sqlmini.parser import parse, parse_script

__all__ = [
    "BinOp",
    "Call",
    "ColumnRef",
    "Delete",
    "Expr",
    "Insert",
    "Literal",
    "Param",
    "PreparedStatement",
    "Select",
    "Statement",
    "StatementResult",
    "UnaryOp",
    "Update",
    "clear_parse_cache",
    "columns_in",
    "compile_expr",
    "equality_key",
    "evaluate",
    "execute_sql",
    "parse",
    "parse_cache_stats",
    "parse_cached",
    "parse_script",
]
