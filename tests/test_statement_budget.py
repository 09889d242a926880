"""Work-count gate on the statement path: SmallBank's prepared statements
on an engine ``Session``, the path ``local://``, the simulator and the
server side of ``tcp://`` / ``cluster://`` all run.

Python-level function calls (``sys.setprofile`` ``call`` events) do not
depend on the host.  The shapes and the counter are
``benchmarks/bench_scaling.py``'s, which records the same numbers in
``BENCH_engine.json``: the body's frame is not counted, the operation's
own frame is.  Upper bounds only — an interpreter that inlines more
(3.12's comprehensions) counts fewer.  Before a key statement became one
runner frame above one verb: 12 / 25 / 18 / 17 / 62.
"""

from __future__ import annotations

from benchmarks.bench_scaling import statement_path_calls

BUDGETS = {
    "get_saving": 6,  # GET_SAVING.execute: a key SELECT ... INTO
    "get_saving_sfu": 14,  # GET_SAVING_SFU.execute: the same, FOR UPDATE
    "add_checking": 14,  # ADD_CHECKING.execute: a key UPDATE
    "begin_commit": 12,  # session.begin() + session.commit(), nothing between
    "balance": 42,  # SmallBankTransactions.run(session, "Balance", ...)
}


def test_statements_stay_within_their_call_budgets():
    calls = statement_path_calls()
    over = {name: calls[name] for name, bound in BUDGETS.items() if calls[name] > bound}
    assert not over, (calls, BUDGETS)
